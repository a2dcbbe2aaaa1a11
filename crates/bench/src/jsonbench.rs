//! Machine-readable perf trajectory: `repro bench --json` writes
//! `BENCH_5.json` so successive PRs can compare execute-phase wall-clock on
//! the same workloads without re-parsing markdown tables.
//!
//! Workloads are the Table-5 execute-phase set: recursive descendant queries
//! over generated Cross / GedML / dept documents, timed in two phases —
//! translate (XPath → SQL'(LFP), cold) and execute (prepared program against
//! the loaded store, warm) — the split the paper's evaluation turns on.
//! Alongside wall-clock the report records throughput (tuples emitted per
//! execute-second) and allocation-count proxies (tuples emitted, statements
//! evaluated, LFP iterations, peak closure size, cached-index reuses) so a
//! regression in *work done* is visible even when a faster machine hides it.

use crate::harness::dataset;
use crate::loadgen::{LoadMode, LoadReport};
use std::sync::Arc;
use std::time::Instant;
use x2s_core::{Engine, Translator};
use x2s_dtd::{samples, Dtd};
use x2s_rel::{ExecOptions, Stats};
use x2s_xpath::parse_xpath;

/// One benchmark workload: a query over a generated document.
pub struct BenchCase {
    /// Short name for the JSON record.
    pub name: &'static str,
    /// Sample DTD name.
    pub dtd: &'static str,
    /// The XPath query.
    pub query: &'static str,
    /// Generator shape (X_L, X_R) and unscaled element target.
    pub shape: (usize, usize, usize),
    /// Generator seed.
    pub seed: u64,
}

/// The Table-5 execute-phase workload set (paper §6 shapes).
pub fn bench_cases() -> Vec<BenchCase> {
    vec![
        BenchCase {
            name: "dept//project",
            dtd: "dept_simplified",
            query: "dept//project",
            shape: (12, 4, 120_000),
            seed: 42,
        },
        BenchCase {
            name: "dept//course[project or student]",
            dtd: "dept_simplified",
            query: "dept//course[project or student]",
            shape: (12, 4, 120_000),
            seed: 42,
        },
        BenchCase {
            name: "cross a//d",
            dtd: "cross",
            query: "a//d",
            shape: (16, 4, 120_000),
            seed: 7,
        },
        BenchCase {
            name: "cross a/b//c/d",
            dtd: "cross",
            query: "a/b//c/d",
            shape: (12, 4, 120_000),
            seed: 42,
        },
        BenchCase {
            name: "gedml Even//Data",
            dtd: "gedml",
            query: "Even//Data",
            shape: (13, 6, 286_845),
            seed: 13,
        },
        BenchCase {
            name: "gedml Even//Obje[Sour]",
            dtd: "gedml",
            query: "Even//Obje[Sour]",
            shape: (13, 6, 286_845),
            seed: 13,
        },
    ]
}

fn sample_dtd(name: &str) -> Dtd {
    match name {
        "dept_simplified" => samples::dept_simplified(),
        "cross" => samples::cross(),
        "gedml" => samples::gedml(),
        "bioml" => samples::bioml(),
        other => panic!("unknown bench dtd {other}"),
    }
}

/// One measured workload record. Each workload is executed **both ways**
/// when the query admits the interval fast path: once with the interval
/// rewrite disabled (`execute_ms`, the LFP baseline every earlier PR
/// reported) and once with it enabled (`interval_execute_ms`) — an honest
/// ablation, same store, same prepared-plan warmup, answers asserted equal.
pub struct BenchRecord {
    /// Workload name.
    pub name: String,
    /// The query.
    pub query: String,
    /// Elements in the generated document.
    pub elements: usize,
    /// Translate wall-clock (fastest of reps), milliseconds.
    pub translate_ms: f64,
    /// Execute wall-clock (fastest of reps, warm prepared query), ms —
    /// the LFP path (interval rewrite disabled), comparable across PRs.
    pub execute_ms: f64,
    /// Execute wall-clock with the interval fast path, ms. `None` when the
    /// query has no rewritable `rec(A, B)` (no `//` reaching elements).
    pub interval_execute_ms: Option<f64>,
    /// `IntervalJoin` nodes in the rewritten program (0 when `None` above).
    pub interval_rewrites: usize,
    /// Sorted-view entries scanned by the interval run (its work proxy).
    pub interval_rows_scanned: u64,
    /// Answer nodes (asserted identical across both paths).
    pub answers: usize,
    /// Tuples emitted by one LFP-path execution (work proxy).
    pub tuples_emitted: u64,
    /// Tuples emitted by one interval-path execution — near the answer
    /// count, since no closure is materialized.
    pub interval_tuples_emitted: u64,
    /// Tuples emitted per execute-second (throughput, LFP path).
    pub rows_per_sec: f64,
    /// Largest closure materialized by any LFP in one execution.
    pub peak_closure: usize,
    /// Largest closure on the interval path (0 when the rewrite covers
    /// every fixpoint of the program).
    pub interval_peak_closure: usize,
    /// Total LFP iterations in one execution.
    pub lfp_iterations: usize,
    /// Statements evaluated (allocation-count proxy: one relation each).
    pub stmts_evaluated: usize,
    /// Joins served from a cached base-edge index (no build table allocated).
    pub join_index_reuses: usize,
}

impl BenchRecord {
    /// LFP-over-interval execute speedup (`None` without an interval run).
    pub fn interval_speedup(&self) -> Option<f64> {
        let iv = self.interval_execute_ms?;
        if iv <= 0.0 {
            return None;
        }
        Some(self.execute_ms / iv)
    }
}

/// Run every workload at `scale` with `reps` repetitions (fastest kept) on
/// the default [`ExecOptions`] — the configuration the engine ships with.
pub fn bench_all(scale: f64, reps: usize) -> Vec<BenchRecord> {
    let exec = ExecOptions::default();
    bench_cases()
        .iter()
        .map(|c| bench_one(c, scale, reps, exec))
        .collect()
}

/// One warm execute-phase measurement: prepared query against the shared
/// store, fastest of `reps`, stats of the fastest run.
fn execute_phase(
    dtd: &Dtd,
    query: &str,
    db: &Arc<x2s_rel::Database>,
    reps: usize,
    exec: ExecOptions,
) -> (f64, usize, Stats) {
    let mut engine = Engine::builder(dtd).exec_options(exec).build();
    engine.load_shared(Arc::clone(db));
    let prepared = engine.prepare(query).expect("bench queries prepare");
    let mut execute_ms = f64::INFINITY;
    let mut answers = 0usize;
    let mut best_stats = Stats::default();
    for _ in 0..reps.max(1) {
        engine.reset_stats();
        let started = Instant::now();
        answers = prepared.execute().expect("bench queries execute").len();
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        if elapsed < execute_ms {
            execute_ms = elapsed;
            best_stats = engine.stats();
        }
    }
    (execute_ms, answers, best_stats)
}

fn bench_one(case: &BenchCase, scale: f64, reps: usize, exec: ExecOptions) -> BenchRecord {
    let dtd = sample_dtd(case.dtd);
    let (xl, xr, elements) = case.shape;
    let target = ((elements as f64 * scale) as usize).max(500);
    // Starred roots can produce near-empty documents for an unlucky seed
    // (the generator budget never forces expansion); retry a few seeds so
    // every workload actually exercises the execute phase.
    let ds = (0..16)
        .map(|s| dataset(&dtd, xl, xr, Some(target), case.seed + s))
        .find(|ds| ds.tree.len() >= target / 4)
        .unwrap_or_else(|| dataset(&dtd, xl, xr, Some(target), case.seed));
    let elements = ds.tree.len();
    let path = parse_xpath(case.query).expect("bench queries parse");

    // Phase 1: translate, cold each rep.
    let mut translate_ms = f64::INFINITY;
    let mut has_interval_variant = false;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let tr = Translator::new(&dtd).translate(&path).expect("translates");
        translate_ms = translate_ms.min(started.elapsed().as_secs_f64() * 1e3);
        has_interval_variant = tr.interval.is_some();
        std::hint::black_box(&tr.program);
    }

    // Phase 2: execute both ways against the same shared store — the LFP
    // baseline first (comparable to earlier PRs), then the interval fast
    // path when the translation admits one.
    let db = Arc::new(ds.db);
    let (execute_ms, answers, lfp_stats) =
        execute_phase(&dtd, case.query, &db, reps, exec.with_interval(false));
    let (interval_execute_ms, interval_stats) = if has_interval_variant {
        let (ms, iv_answers, stats) =
            execute_phase(&dtd, case.query, &db, reps, exec.with_interval(true));
        assert_eq!(iv_answers, answers, "{}: interval path diverged", case.name);
        assert!(
            stats.interval_rewrites > 0,
            "{}: interval variant compiled but never selected",
            case.name
        );
        (Some(ms), stats)
    } else {
        (None, Stats::default())
    };
    let rows_per_sec = if execute_ms > 0.0 {
        lfp_stats.tuples_emitted as f64 / (execute_ms / 1e3)
    } else {
        0.0
    };
    BenchRecord {
        name: case.name.to_string(),
        query: case.query.to_string(),
        elements,
        translate_ms,
        execute_ms,
        interval_execute_ms,
        interval_rewrites: interval_stats.interval_rewrites,
        interval_rows_scanned: interval_stats.interval_rows_scanned,
        answers,
        tuples_emitted: lfp_stats.tuples_emitted,
        interval_tuples_emitted: interval_stats.tuples_emitted,
        rows_per_sec,
        peak_closure: lfp_stats.lfp_peak_closure,
        interval_peak_closure: interval_stats.lfp_peak_closure,
        lfp_iterations: lfp_stats.lfp_iterations,
        stmts_evaluated: lfp_stats.stmts_evaluated,
        join_index_reuses: lfp_stats.join_index_reuses,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a closed-/open-loop serving [`LoadReport`] as the `"serving"`
/// object of the bench document.
fn serving_json(r: &LoadReport, indent: &str) -> String {
    let (mode, target_qps) = match r.mode {
        LoadMode::Closed => ("closed", 0.0),
        LoadMode::Open { target_qps } => ("open", target_qps),
    };
    let mut out = String::new();
    out.push_str("{\n");
    let mut field = |name: &str, value: String, last: bool| {
        out.push_str(&format!(
            "{indent}  \"{name}\": {value}{}\n",
            if last { "" } else { "," }
        ));
    };
    field("mode", json_str(mode), false);
    field("target_qps", format!("{target_qps:.1}"), false);
    field("workers", r.workers.to_string(), false);
    field("distinct_queries", r.distinct_queries.to_string(), false);
    field("total_requests", r.total_requests.to_string(), false);
    field("errors", r.errors.to_string(), false);
    field(
        "elapsed_ms",
        format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
        false,
    );
    field("qps", format!("{:.1}", r.qps), false);
    field("p50_ms", format!("{:.3}", r.p50_ms), false);
    field("p95_ms", format!("{:.3}", r.p95_ms), false);
    field("p99_ms", format!("{:.3}", r.p99_ms), false);
    field("max_ms", format!("{:.3}", r.max_ms), false);
    field("rejected", r.rejected.to_string(), false);
    field("coalesced", r.coalesced.to_string(), false);
    field("flights", r.flights.to_string(), false);
    field("sat_checked", r.sat_checks.to_string(), false);
    field("sat_pruned", r.pruned.to_string(), false);
    field("timed_out", r.timed_out.to_string(), false);
    field("coalesce_rate", format!("{:.4}", r.coalesce_rate), true);
    out.push_str(&format!("{indent}}}"));
    out
}

/// Render the records as the `BENCH_5.json` document (pretty-printed,
/// hand-rolled — the image has no serde). `serving` adds the closed-loop
/// load-harness section (p50/p95/p99, coalesce/rejection rates) when a
/// load run accompanied the workloads.
pub fn bench_json(
    records: &[BenchRecord],
    scale: f64,
    reps: usize,
    serving: Option<&LoadReport>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    if let Some(report) = serving {
        out.push_str(&format!("  \"serving\": {},\n", serving_json(report, "  ")));
    }
    out.push_str("  \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_str(&r.name)));
        out.push_str(&format!("      \"query\": {},\n", json_str(&r.query)));
        out.push_str(&format!("      \"elements\": {},\n", r.elements));
        out.push_str(&format!("      \"translate_ms\": {:.3},\n", r.translate_ms));
        out.push_str(&format!("      \"execute_ms\": {:.3},\n", r.execute_ms));
        match r.interval_execute_ms {
            Some(ms) => {
                out.push_str(&format!("      \"interval_execute_ms\": {ms:.3},\n"));
                out.push_str(&format!(
                    "      \"interval_speedup\": {:.2},\n",
                    r.interval_speedup().unwrap_or(0.0)
                ));
            }
            None => out.push_str("      \"interval_execute_ms\": null,\n"),
        }
        out.push_str(&format!(
            "      \"interval_rewrites\": {},\n",
            r.interval_rewrites
        ));
        out.push_str(&format!(
            "      \"interval_rows_scanned\": {},\n",
            r.interval_rows_scanned
        ));
        out.push_str(&format!(
            "      \"interval_tuples_emitted\": {},\n",
            r.interval_tuples_emitted
        ));
        out.push_str(&format!(
            "      \"interval_peak_closure\": {},\n",
            r.interval_peak_closure
        ));
        out.push_str(&format!("      \"answers\": {},\n", r.answers));
        out.push_str(&format!(
            "      \"tuples_emitted\": {},\n",
            r.tuples_emitted
        ));
        out.push_str(&format!("      \"rows_per_sec\": {:.0},\n", r.rows_per_sec));
        out.push_str(&format!("      \"peak_closure\": {},\n", r.peak_closure));
        out.push_str(&format!(
            "      \"lfp_iterations\": {},\n",
            r.lfp_iterations
        ));
        out.push_str(&format!(
            "      \"stmts_evaluated\": {},\n",
            r.stmts_evaluated
        ));
        out.push_str(&format!(
            "      \"join_index_reuses\": {}\n",
            r.join_index_reuses
        ));
        out.push_str(if i + 1 == records.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render records as a printable summary table (the non-`--json` mode).
pub fn bench_table(records: &[BenchRecord]) -> crate::workloads::Table {
    crate::workloads::Table {
        title: "Perf trajectory — Table-5 execute-phase workloads (LFP vs interval)".into(),
        headers: vec![
            "workload".into(),
            "elements".into(),
            "translate (ms)".into(),
            "lfp exec (ms)".into(),
            "interval exec (ms)".into(),
            "speedup".into(),
            "answers".into(),
            "peak closure".into(),
            "idx reuses".into(),
        ],
        rows: records
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.elements.to_string(),
                    format!("{:.1}", r.translate_ms),
                    format!("{:.1}", r.execute_ms),
                    r.interval_execute_ms
                        .map(|ms| format!("{ms:.1}"))
                        .unwrap_or_else(|| "—".into()),
                    r.interval_speedup()
                        .map(|s| format!("{s:.1}×"))
                        .unwrap_or_else(|| "—".into()),
                    r.answers.to_string(),
                    r.peak_closure.to_string(),
                    r.join_index_reuses.to_string(),
                ]
            })
            .collect(),
        note: "fastest of N reps; execute is warm (prepared plan, loaded store); \
               interval column is the pre/post range-join fast path on the same store"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_parseable_shape() {
        let recs = bench_all(0.005, 1);
        assert_eq!(recs.len(), bench_cases().len());
        let json = bench_json(&recs, 0.005, 1, None);
        assert!(!json.contains("\"pr\""), "no hard-coded PR number");
        // cheap structural checks without a JSON parser
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"name\":").count(), recs.len());
        assert_eq!(json.matches("\"interval_execute_ms\":").count(), recs.len());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        for r in &recs {
            assert!(r.execute_ms >= 0.0 && r.translate_ms >= 0.0);
        }
        // every Table-5 workload here has a `//` step reaching elements, so
        // each record carries the ablation with at least one rewrite
        assert!(
            recs.iter()
                .all(|r| r.interval_execute_ms.is_some() && r.interval_rewrites > 0),
            "descendant workloads all take the interval fast path"
        );
        let table = bench_table(&recs);
        assert_eq!(table.rows.len(), recs.len());
    }

    #[test]
    fn serving_section_round_trips_the_report_fields() {
        use std::time::Duration;
        let report = LoadReport {
            mode: LoadMode::Closed,
            workers: 8,
            distinct_queries: 2,
            total_requests: 100,
            errors: 0,
            elapsed: Duration::from_millis(500),
            qps: 200.0,
            p50_ms: 1.5,
            p95_ms: 3.0,
            p99_ms: 4.0,
            max_ms: 5.0,
            rejected: 0,
            coalesced: 60,
            flights: 40,
            sat_checks: 40,
            pruned: 0,
            timed_out: 0,
            coalesce_rate: 0.6,
        };
        let json = bench_json(&[], 0.1, 1, Some(&report));
        assert!(json.contains("\"serving\": {"));
        assert!(json.contains("\"mode\": \"closed\""));
        assert!(json.contains("\"p99_ms\": 4.000"));
        assert!(json.contains("\"coalesce_rate\": 0.6000"));
        assert!(json.contains("\"rejected\": 0"));
        assert!(json.contains("\"timed_out\": 0"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
