//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exec-warm|translate-cold|serve-http> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the engine and the server in their default
//! configuration, checks every answer against the native XPath oracle and
//! prints its end-to-end metrics (`--trace 0`) or, from a separate traced
//! run, its per-layer metrics (`--trace 1`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads, metrics and layer notes.

mod exec_warm;
mod gen;
mod http;
mod replay;
mod serve_http;
mod stat;
mod trace;
mod translate_cold;

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use x2s_rel::{ExecOptions, Stats};

use crate::stat::ratio;
use crate::trace::{LayerTotals, Span};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("sql_ops_per_query", "count"),
    ("sql_bytes_per_query", "bytes"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.generate_ms", "ms"),
    ("setup.load_ms", "ms"),
    ("setup.tuples", "count"),
    ("xpath.parse_us", "us"),
    ("xpath.canon_us", "us"),
    ("xpath.sat_us", "us"),
    ("xpath.sat_checks", "count"),
    ("xpath.sat_prune_ratio", "ratio"),
    ("core.prepare_ms", "ms"),
    ("core.x2e_ms", "ms"),
    ("core.e2sql_ms", "ms"),
    ("core.interval_variant_ms", "ms"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("rel.opt_ms", "ms"),
    ("rel.opt_ops_before", "count"),
    ("rel.opt_ops_after", "count"),
    ("rel.analyze_ms", "ms"),
    ("rel.analyze_warnings", "count"),
    ("rel.sql_render_ms", "ms"),
    ("rel.stmt_lfp_ms", "ms"),
    ("rel.lfp_iterations", "count"),
    ("rel.lfp_peak_closure", "count"),
    ("rel.stmt_interval_ms", "ms"),
    ("rel.interval_rows_scanned", "count"),
    ("rel.exec_ms", "ms"),
    ("rel.stmt_other_ms", "ms"),
    ("rel.tuples_emitted", "count"),
    ("rel.stmts_evaluated", "count"),
    ("rel.join_index_reuses", "count"),
    ("rel.answers_per_tuple", "ratio"),
    ("serve.protocol_us", "us"),
    ("serve.service_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.stream_bytes", "bytes"),
    ("serve.stream_chunks", "count"),
    ("serve.ttfb_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("share.xpath", "ratio"),
    ("share.core", "ratio"),
    ("share.rel_translate", "ratio"),
    ("share.rel_exec", "ratio"),
    ("share.serve", "ratio"),
    ("share.unattributed", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Smallest share of traced operation time the layer spans must cover in
/// the single-caller workloads.
const MIN_COVERAGE: f64 = 0.95;

/// How one run is configured.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Take the traced run instead of the measured one.
    pub trace: bool,
    /// Corrupt one expected answer, to show that the checks fail the run.
    pub corrupt: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans of the traced window.
    pub spans: Vec<Span>,
    /// Free-form lines recorded with the result.
    pub notes: Vec<String>,
    /// Mean operation latency of the untraced window as measured, before
    /// the host-speed adjustment, in milliseconds.
    pub mean_latency_ms: f64,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record `throughput_qps`, `latency_p50_ms` and `latency_p99_ms`.
    fn latencies(&mut self, samples: &stat::Samples, host: stat::Host) -> Result<(), String> {
        let s = samples.summary(host)?;
        self.set("throughput_qps", s.throughput);
        self.set("latency_p50_ms", s.p50);
        self.set("latency_p99_ms", s.p99);
        self.mean_latency_ms = s.mean;
        self.notes.push(format!(
            "{} operations in {} groups; host slowdown {:.2} to {:.2} over the window's slices; \
             as observed: throughput {:.2}/s, p50 {:.3} ms, p99 {:.3} ms",
            s.n,
            s.groups,
            s.slowdown_range.0,
            s.slowdown_range.1,
            s.observed.0,
            s.observed.1,
            s.observed.2
        ));
        Ok(())
    }

    /// Record `setup_s` and the setup layers' times as medians over the
    /// run's setups.
    fn setups(&mut self, setup_s: &[f64], generate_ms: &[f64], load_ms: &[f64]) {
        self.set("setup_s", stat::median(setup_s));
        self.set("setup.generate_ms", stat::median(generate_ms));
        self.set("setup.load_ms", stat::median(load_ms));
        let all: Vec<String> = setup_s.iter().map(|s| format!("{:.4}", s)).collect();
        self.notes
            .push(format!("setup_s of each setup: {}", all.join(" ")));
    }

    /// Record `success_ratio`.
    fn outcomes(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.set("success_ratio", ratio(ok, self.attempted as f64));
    }

    /// Per-layer counts from an `Engine::stats()` delta over `ops`
    /// operations of the untraced window.
    fn counts(&mut self, s: &Stats, ops: u64, answers: u64) {
        let per_op = |v: f64| ratio(v, ops as f64);
        self.set("xpath.sat_checks", per_op(s.sat_checked as f64));
        self.set(
            "xpath.sat_prune_ratio",
            ratio(s.sat_pruned as f64, s.sat_checked as f64),
        );
        self.set(
            "core.plan_cache_hit_ratio",
            ratio(
                s.plan_cache_hits as f64,
                (s.plan_cache_hits + s.plan_cache_misses) as f64,
            ),
        );
        self.set("rel.analyze_warnings", s.analyze_warnings as f64);
        self.set("rel.lfp_iterations", per_op(s.lfp_iterations as f64));
        self.set("rel.lfp_peak_closure", s.lfp_peak_closure as f64);
        self.set(
            "rel.interval_rows_scanned",
            per_op(s.interval_rows_scanned as f64),
        );
        self.set("rel.tuples_emitted", per_op(s.tuples_emitted as f64));
        self.set("rel.stmts_evaluated", per_op(s.stmts_evaluated as f64));
        self.set("rel.join_index_reuses", per_op(s.join_index_reuses as f64));
        self.set(
            "rel.answers_per_tuple",
            ratio(answers as f64, s.tuples_emitted as f64),
        );
    }

    /// Per-layer times and shares from the traced window's spans, whose
    /// roots (one per operation) are named `root`, and the tracing
    /// overhead: traced over untraced mean operation time, which for a
    /// closed loop is untraced over traced throughput.
    fn layers(&mut self, root: &'static str) {
        let t = LayerTotals::of(&self.spans);
        let ops = t.count.get(root).copied().unwrap_or(0);
        let us = |name| t.self_ms(name, ops) * 1e3;
        self.set("xpath.parse_us", us("xpath.parse"));
        self.set("xpath.canon_us", us("xpath.canon"));
        self.set("xpath.sat_us", us("xpath.sat"));
        self.set("serve.protocol_us", us("serve.protocol"));
        for (metric, span) in [
            ("core.prepare_ms", "core.prepare"),
            ("core.x2e_ms", "core.x2e"),
            ("core.e2sql_ms", "core.e2sql"),
            ("core.interval_variant_ms", "core.interval_variant"),
            ("rel.opt_ms", "rel.opt"),
            ("rel.analyze_ms", "rel.analyze"),
            ("rel.sql_render_ms", "rel.sql_render"),
            ("rel.stmt_lfp_ms", "rel.stmt_lfp"),
            ("rel.stmt_interval_ms", "rel.stmt_interval"),
            ("rel.stmt_other_ms", "rel.stmt_other"),
            ("serve.service_ms", "serve.service"),
            ("serve.stream_ms", "serve.stream"),
        ] {
            self.set(metric, t.self_ms(span, ops));
        }
        self.set("rel.exec_ms", t.total_ms("rel.exec", ops));

        let whole = t.total_ns.get(root).copied().unwrap_or(0) as f64;
        let groups: [(&'static str, &[&str]); 6] = [
            ("share.xpath", &["xpath."]),
            ("share.core", &["core."]),
            (
                "share.rel_translate",
                &["rel.opt", "rel.analyze", "rel.sql_render"],
            ),
            ("share.rel_exec", &["rel.exec", "rel.stmt_"]),
            // a client's own span is its wait outside the server's layers
            ("share.serve", &["serve.", "client"]),
            ("share.unattributed", &["op"]),
        ];
        for (metric, prefixes) in groups {
            self.set(metric, ratio(t.self_ns_of(prefixes) as f64, whole));
        }
        let coverage = 1.0 - self.metrics["share.unattributed"];
        self.set("trace.coverage", coverage);
        self.set(
            "trace.overhead_ratio",
            ratio(t.total_ms(root, ops), self.mean_latency_ms),
        );
        let shares: Vec<String> = groups
            .iter()
            .map(|(m, _)| format!("{m}={:.3}", self.metrics[m]))
            .collect();
        self.notes.push(format!(
            "layer shares of traced operation time ({ops} operations): {}",
            shares.join(" ")
        ));
    }

    /// Fail unless the layer spans cover the traced operation time.
    fn require_coverage(&self) -> Result<(), String> {
        let coverage = self.metrics["trace.coverage"];
        if coverage < MIN_COVERAGE {
            return Err(format!(
                "layer self times cover only {coverage:.3} of traced operation time \
                 (need {MIN_COVERAGE})"
            ));
        }
        Ok(())
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without leaving it.
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host fingerprint and effective configuration, recorded with every
/// result.
fn fingerprint(cfg: &RunCfg, workload: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let exec = ExecOptions::default();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"cores\":{cores},\
         \"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"exec_options\":{},\
         \"serve_config\":{},\"plan_cache_capacity\":{}}}",
        json_str(workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit()),
        json_str(&format!("{exec:?}")),
        json_str(&format!("{:?}", x2s_serve::ServeConfig::default())),
        x2s_core::engine::DEFAULT_PLAN_CACHE_CAPACITY,
    )
}

/// The engine and server defaults the workloads run under. The benchmark
/// measures what users get, so it refuses to run if a default knob has
/// moved to a value it does not describe.
fn check_defaults() -> Result<(), String> {
    let exec = ExecOptions::default();
    let serve = x2s_serve::ServeConfig::default();
    let expected = (1, true, false, true, None, None, None, None, None);
    let got = (
        exec.threads,
        exec.lazy,
        exec.naive_fixpoint,
        exec.interval,
        exec.deadline,
        exec.tuple_budget,
        exec.closure_budget,
        serve.flight_hold,
        serve.query_deadline,
    );
    if got != expected {
        return Err(format!(
            "default configuration changed: {exec:?} {serve:?}; update the benchmark's description"
        ));
    }
    Ok(())
}

fn usage() -> String {
    "usage: x2s_perfbench --workload <exec-warm|translate-cold|serve-http> --seed <n> \
     --seconds <s> --trace <0|1> [--corrupt-expected]"
        .into()
}

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--corrupt-expected" => cfg.corrupt = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, cfg))
}

fn result_line(report: &Report, wanted: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn write_trace(workload: &str, cfg: &RunCfg, spans: &[Span]) -> Result<String, String> {
    let dir = ".bench_out";
    fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/spans-{workload}-seed{}.jsonl", cfg.seed);
    let mut file =
        std::io::BufWriter::new(fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    trace::write_spans(&mut file, spans).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_defaults() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    println!("# host {}", fingerprint(&cfg, &workload));
    let outcome = match workload.as_str() {
        "exec-warm" => exec_warm::run(&cfg),
        "translate-cold" => translate_cold::run(&cfg),
        "serve-http" => serve_http::run(&cfg),
        other => {
            eprintln!("unknown workload {other}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAILED: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    if cfg.trace {
        match write_trace(&workload, &cfg, &report.spans) {
            Ok(path) => println!("# {} spans written to {path}", report.spans.len()),
            Err(e) => {
                eprintln!("FAILED: {e}");
                return ExitCode::from(1);
            }
        }
        report.spans.clear();
    }
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in wanted {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{workload:>14} {name:<28} {value:>14.4} {unit}");
    }
    println!("{}", result_line(&report, wanted));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for workload in ["exec-warm", "translate-cold", "serve-http"] {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")));
        }
    }

    #[test]
    fn defaults_are_the_measured_configuration() {
        check_defaults().unwrap();
    }

    #[test]
    fn arguments_parse_and_refuse_junk() {
        let args: Vec<String> = [
            "--workload",
            "serve-http",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (w, cfg) = parse_args(&args).unwrap();
        assert_eq!(w, "serve-http");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 3.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
