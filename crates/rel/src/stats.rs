//! Execution statistics.
//!
//! These counters are the engine-level quantities the paper's evaluation
//! turns on: how many joins/unions run (once, outside the fixpoint, for our
//! approach — once *per iteration* inside `WITH…RECURSIVE` for SQLGen-R),
//! how many LFP operators execute and how many iterations they take.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated during execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Join operators executed (each per-iteration join inside a fixpoint
    /// counts separately — that is the point).
    pub joins: usize,
    /// Union operations executed (same accounting).
    pub unions: usize,
    /// Selections executed.
    pub selects: usize,
    /// Projections executed.
    pub projects: usize,
    /// Set differences / intersections executed.
    pub set_ops: usize,
    /// Simple LFP operator invocations.
    pub lfp_invocations: usize,
    /// Total LFP iterations across invocations.
    pub lfp_iterations: usize,
    /// Multi-relation fixpoint invocations (SQLGen-R).
    pub multilfp_invocations: usize,
    /// Total multi-relation fixpoint iterations.
    pub multilfp_iterations: usize,
    /// Tuples produced by all operators. A `Project` directly over a
    /// `Join` runs fused and counts only the rows it materializes — the
    /// projected ones — not the joined rows it never builds.
    pub tuples_emitted: u64,
    /// Statements evaluated (lazy evaluation may skip some).
    pub stmts_evaluated: usize,
    /// Statements skipped by lazy evaluation.
    pub stmts_skipped: usize,
    /// Prepared-query plan-cache hits (a prepare served an existing
    /// translation, skipping CycleEX and SQL generation entirely).
    pub plan_cache_hits: usize,
    /// Prepared-query plan-cache misses (a prepare ran the full translation
    /// pipeline).
    pub plan_cache_misses: usize,
    /// Optimizer: statements eliminated across all optimized translations
    /// (dead-statement elimination + CSE merging + temp inlining).
    pub opt_stmts_eliminated: usize,
    /// Optimizer: structurally duplicate subplans hash-consed onto one
    /// shared node.
    pub opt_plans_hash_consed: usize,
    /// Optimizer: selections pushed through projections/`Distinct`/joins.
    pub opt_preds_pushed: usize,
    /// Largest closure (pair set) materialized by any single LFP invocation
    /// — the memory high-water mark of recursion. Merges with `max`, not `+`.
    pub lfp_peak_closure: usize,
    /// Joins whose build side was served from a cached base-edge index on
    /// the [`crate::Database`] instead of building a fresh hash table.
    pub join_index_reuses: usize,
    /// Programs verified by the static plan analyzer ([`crate::analyze`])
    /// on the engine's prepare path.
    pub analyze_checked: usize,
    /// Non-fatal analyzer warnings (e.g. dead statements) across those
    /// checks.
    pub analyze_warnings: usize,
    /// Queries run through the static satisfiability analyzer on the
    /// prepare/admission path (the engine's `x2s_xpath::sat` gate).
    pub sat_checked: usize,
    /// Queries proven statically empty and answered without translation or
    /// execution (a subset of `sat_checked`).
    pub sat_pruned: usize,
    /// Serving layer: requests admitted into the bounded request queue.
    pub requests_admitted: usize,
    /// Serving layer: requests rejected at admission (queue full or
    /// shutting down — the 503 + `Retry-After` path).
    pub requests_rejected: usize,
    /// Serving layer: requests that joined an identical in-flight query's
    /// single-flight execution instead of running their own (the executor
    /// ran `admitted - coalesced` flights, not `admitted`).
    pub requests_coalesced: usize,
    /// Serving layer: HTTP body chunks written by streaming result
    /// encoders (answer sets leave in bounded chunks, never one buffer).
    pub stream_chunks: usize,
    /// `LFP(descendant)` closures answered by the interval fast path
    /// ([`crate::plan::Plan::IntervalJoin`]) instead of a fixpoint — one
    /// per rewritten recursion variable per run.
    pub interval_rewrites: usize,
    /// Pre-sorted interval-view entries examined by interval joins (the
    /// fast path's analogue of closure tuples materialized).
    pub interval_rows_scanned: u64,
    /// Executions aborted by the cooperative deadline
    /// ([`crate::ExecError::DeadlineExceeded`]).
    pub exec_timeouts: usize,
    /// Executions aborted by a tuple or closure-memory budget
    /// ([`crate::ExecError::BudgetExceeded`]).
    pub budget_aborts: usize,
    /// Panics caught and contained by the serving layer (a flight leader
    /// that unwound; followers got a typed error, the worker survived).
    pub panics_contained: usize,
    /// Serving layer: requests answered `503 Retry-After` because their
    /// execution deadline expired (the worker returned to the pool).
    pub requests_timed_out: usize,
}

impl Stats {
    /// Sum two stat sets.
    pub fn merge(&mut self, other: &Stats) {
        self.joins += other.joins;
        self.unions += other.unions;
        self.selects += other.selects;
        self.projects += other.projects;
        self.set_ops += other.set_ops;
        self.lfp_invocations += other.lfp_invocations;
        self.lfp_iterations += other.lfp_iterations;
        self.multilfp_invocations += other.multilfp_invocations;
        self.multilfp_iterations += other.multilfp_iterations;
        self.tuples_emitted += other.tuples_emitted;
        self.stmts_evaluated += other.stmts_evaluated;
        self.stmts_skipped += other.stmts_skipped;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.opt_stmts_eliminated += other.opt_stmts_eliminated;
        self.opt_plans_hash_consed += other.opt_plans_hash_consed;
        self.opt_preds_pushed += other.opt_preds_pushed;
        self.lfp_peak_closure = self.lfp_peak_closure.max(other.lfp_peak_closure);
        self.join_index_reuses += other.join_index_reuses;
        self.analyze_checked += other.analyze_checked;
        self.analyze_warnings += other.analyze_warnings;
        self.sat_checked += other.sat_checked;
        self.sat_pruned += other.sat_pruned;
        self.requests_admitted += other.requests_admitted;
        self.requests_rejected += other.requests_rejected;
        self.requests_coalesced += other.requests_coalesced;
        self.stream_chunks += other.stream_chunks;
        self.interval_rewrites += other.interval_rewrites;
        self.interval_rows_scanned += other.interval_rows_scanned;
        self.exec_timeouts += other.exec_timeouts;
        self.budget_aborts += other.budget_aborts;
        self.panics_contained += other.panics_contained;
        self.requests_timed_out += other.requests_timed_out;
    }
}

/// A thread-safe [`Stats`] accumulator: one atomic counter per field.
///
/// Concurrent serving paths (the `Engine`'s prepare/execute counters) record
/// into a `SharedStats` without taking any lock; [`SharedStats::snapshot`]
/// reads the counters back out as a plain [`Stats`]. All operations use
/// relaxed ordering — the counters are independent monotonic tallies, and
/// the only cross-thread guarantee required is that no increment is lost
/// (which `fetch_add` provides regardless of ordering).
#[derive(Debug, Default)]
pub struct SharedStats {
    joins: AtomicU64,
    unions: AtomicU64,
    selects: AtomicU64,
    projects: AtomicU64,
    set_ops: AtomicU64,
    lfp_invocations: AtomicU64,
    lfp_iterations: AtomicU64,
    multilfp_invocations: AtomicU64,
    multilfp_iterations: AtomicU64,
    tuples_emitted: AtomicU64,
    stmts_evaluated: AtomicU64,
    stmts_skipped: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    opt_stmts_eliminated: AtomicU64,
    opt_plans_hash_consed: AtomicU64,
    opt_preds_pushed: AtomicU64,
    lfp_peak_closure: AtomicU64,
    join_index_reuses: AtomicU64,
    analyze_checked: AtomicU64,
    analyze_warnings: AtomicU64,
    sat_checked: AtomicU64,
    sat_pruned: AtomicU64,
    requests_admitted: AtomicU64,
    requests_rejected: AtomicU64,
    requests_coalesced: AtomicU64,
    stream_chunks: AtomicU64,
    interval_rewrites: AtomicU64,
    interval_rows_scanned: AtomicU64,
    exec_timeouts: AtomicU64,
    budget_aborts: AtomicU64,
    panics_contained: AtomicU64,
    requests_timed_out: AtomicU64,
}

impl SharedStats {
    /// New zeroed accumulator.
    pub fn new() -> Self {
        SharedStats::default()
    }

    /// Count one plan-cache hit.
    pub fn plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one plan-cache miss.
    pub fn plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one static-analyzer check on the prepare path, with the number
    /// of non-fatal warnings it produced.
    pub fn analyze_check(&self, warnings: usize) {
        self.analyze_checked.fetch_add(1, Ordering::Relaxed);
        self.analyze_warnings
            .fetch_add(warnings as u64, Ordering::Relaxed);
    }

    /// Count one prepare-time satisfiability analysis; `pruned` marks a
    /// verdict that statically emptied the query, skipping translation and
    /// execution entirely.
    pub fn sat_check(&self, pruned: bool) {
        self.sat_checked.fetch_add(1, Ordering::Relaxed);
        if pruned {
            self.sat_pruned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one request admitted into a serving layer's bounded queue.
    pub fn request_admitted(&self) {
        self.requests_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request rejected at admission (queue full / shutdown).
    pub fn request_rejected(&self) {
        self.requests_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request that joined an identical in-flight query instead
    /// of executing its own flight (single-flight coalescing).
    pub fn request_coalesced(&self) {
        self.requests_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` streamed result chunks written by a response encoder.
    pub fn add_stream_chunks(&self, n: usize) {
        self.stream_chunks.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Count one execution aborted by the cooperative deadline.
    pub fn exec_timeout(&self) {
        self.exec_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one execution aborted by a tuple/closure budget.
    pub fn budget_abort(&self) {
        self.budget_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one panic caught and contained by the serving layer.
    pub fn panic_contained(&self) {
        self.panics_contained.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request answered 503 because its deadline expired.
    pub fn request_timed_out(&self) {
        self.requests_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Add a finished run's counters (the lock-free analogue of
    /// [`Stats::merge`]).
    pub fn record(&self, s: &Stats) {
        self.joins.fetch_add(s.joins as u64, Ordering::Relaxed);
        self.unions.fetch_add(s.unions as u64, Ordering::Relaxed);
        self.selects.fetch_add(s.selects as u64, Ordering::Relaxed);
        self.projects
            .fetch_add(s.projects as u64, Ordering::Relaxed);
        self.set_ops.fetch_add(s.set_ops as u64, Ordering::Relaxed);
        self.lfp_invocations
            .fetch_add(s.lfp_invocations as u64, Ordering::Relaxed);
        self.lfp_iterations
            .fetch_add(s.lfp_iterations as u64, Ordering::Relaxed);
        self.multilfp_invocations
            .fetch_add(s.multilfp_invocations as u64, Ordering::Relaxed);
        self.multilfp_iterations
            .fetch_add(s.multilfp_iterations as u64, Ordering::Relaxed);
        self.tuples_emitted
            .fetch_add(s.tuples_emitted, Ordering::Relaxed);
        self.stmts_evaluated
            .fetch_add(s.stmts_evaluated as u64, Ordering::Relaxed);
        self.stmts_skipped
            .fetch_add(s.stmts_skipped as u64, Ordering::Relaxed);
        self.plan_cache_hits
            .fetch_add(s.plan_cache_hits as u64, Ordering::Relaxed);
        self.plan_cache_misses
            .fetch_add(s.plan_cache_misses as u64, Ordering::Relaxed);
        self.opt_stmts_eliminated
            .fetch_add(s.opt_stmts_eliminated as u64, Ordering::Relaxed);
        self.opt_plans_hash_consed
            .fetch_add(s.opt_plans_hash_consed as u64, Ordering::Relaxed);
        self.opt_preds_pushed
            .fetch_add(s.opt_preds_pushed as u64, Ordering::Relaxed);
        self.lfp_peak_closure
            .fetch_max(s.lfp_peak_closure as u64, Ordering::Relaxed);
        self.join_index_reuses
            .fetch_add(s.join_index_reuses as u64, Ordering::Relaxed);
        self.analyze_checked
            .fetch_add(s.analyze_checked as u64, Ordering::Relaxed);
        self.analyze_warnings
            .fetch_add(s.analyze_warnings as u64, Ordering::Relaxed);
        self.sat_checked
            .fetch_add(s.sat_checked as u64, Ordering::Relaxed);
        self.sat_pruned
            .fetch_add(s.sat_pruned as u64, Ordering::Relaxed);
        self.requests_admitted
            .fetch_add(s.requests_admitted as u64, Ordering::Relaxed);
        self.requests_rejected
            .fetch_add(s.requests_rejected as u64, Ordering::Relaxed);
        self.requests_coalesced
            .fetch_add(s.requests_coalesced as u64, Ordering::Relaxed);
        self.stream_chunks
            .fetch_add(s.stream_chunks as u64, Ordering::Relaxed);
        self.interval_rewrites
            .fetch_add(s.interval_rewrites as u64, Ordering::Relaxed);
        self.interval_rows_scanned
            .fetch_add(s.interval_rows_scanned, Ordering::Relaxed);
        self.exec_timeouts
            .fetch_add(s.exec_timeouts as u64, Ordering::Relaxed);
        self.budget_aborts
            .fetch_add(s.budget_aborts as u64, Ordering::Relaxed);
        self.panics_contained
            .fetch_add(s.panics_contained as u64, Ordering::Relaxed);
        self.requests_timed_out
            .fetch_add(s.requests_timed_out as u64, Ordering::Relaxed);
    }

    /// Record the pass-level counters of one optimized translation (the
    /// lock-free path [`crate::opt::OptStats`] reaches the engine's
    /// accumulated statistics through).
    pub fn record_opt(&self, o: &crate::opt::OptStats) {
        self.opt_stmts_eliminated
            .fetch_add(o.stmts_eliminated as u64, Ordering::Relaxed);
        self.opt_plans_hash_consed
            .fetch_add(o.plans_hash_consed as u64, Ordering::Relaxed);
        self.opt_preds_pushed
            .fetch_add(o.preds_pushed as u64, Ordering::Relaxed);
    }

    /// Read the counters out as a plain [`Stats`] value.
    pub fn snapshot(&self) -> Stats {
        Stats {
            joins: self.joins.load(Ordering::Relaxed) as usize,
            unions: self.unions.load(Ordering::Relaxed) as usize,
            selects: self.selects.load(Ordering::Relaxed) as usize,
            projects: self.projects.load(Ordering::Relaxed) as usize,
            set_ops: self.set_ops.load(Ordering::Relaxed) as usize,
            lfp_invocations: self.lfp_invocations.load(Ordering::Relaxed) as usize,
            lfp_iterations: self.lfp_iterations.load(Ordering::Relaxed) as usize,
            multilfp_invocations: self.multilfp_invocations.load(Ordering::Relaxed) as usize,
            multilfp_iterations: self.multilfp_iterations.load(Ordering::Relaxed) as usize,
            tuples_emitted: self.tuples_emitted.load(Ordering::Relaxed),
            stmts_evaluated: self.stmts_evaluated.load(Ordering::Relaxed) as usize,
            stmts_skipped: self.stmts_skipped.load(Ordering::Relaxed) as usize,
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed) as usize,
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed) as usize,
            opt_stmts_eliminated: self.opt_stmts_eliminated.load(Ordering::Relaxed) as usize,
            opt_plans_hash_consed: self.opt_plans_hash_consed.load(Ordering::Relaxed) as usize,
            opt_preds_pushed: self.opt_preds_pushed.load(Ordering::Relaxed) as usize,
            lfp_peak_closure: self.lfp_peak_closure.load(Ordering::Relaxed) as usize,
            join_index_reuses: self.join_index_reuses.load(Ordering::Relaxed) as usize,
            analyze_checked: self.analyze_checked.load(Ordering::Relaxed) as usize,
            analyze_warnings: self.analyze_warnings.load(Ordering::Relaxed) as usize,
            sat_checked: self.sat_checked.load(Ordering::Relaxed) as usize,
            sat_pruned: self.sat_pruned.load(Ordering::Relaxed) as usize,
            requests_admitted: self.requests_admitted.load(Ordering::Relaxed) as usize,
            requests_rejected: self.requests_rejected.load(Ordering::Relaxed) as usize,
            requests_coalesced: self.requests_coalesced.load(Ordering::Relaxed) as usize,
            stream_chunks: self.stream_chunks.load(Ordering::Relaxed) as usize,
            interval_rewrites: self.interval_rewrites.load(Ordering::Relaxed) as usize,
            interval_rows_scanned: self.interval_rows_scanned.load(Ordering::Relaxed),
            exec_timeouts: self.exec_timeouts.load(Ordering::Relaxed) as usize,
            budget_aborts: self.budget_aborts.load(Ordering::Relaxed) as usize,
            panics_contained: self.panics_contained.load(Ordering::Relaxed) as usize,
            requests_timed_out: self.requests_timed_out.load(Ordering::Relaxed) as usize,
        }
    }

    /// Zero every counter.
    pub fn reset(&self) {
        self.joins.store(0, Ordering::Relaxed);
        self.unions.store(0, Ordering::Relaxed);
        self.selects.store(0, Ordering::Relaxed);
        self.projects.store(0, Ordering::Relaxed);
        self.set_ops.store(0, Ordering::Relaxed);
        self.lfp_invocations.store(0, Ordering::Relaxed);
        self.lfp_iterations.store(0, Ordering::Relaxed);
        self.multilfp_invocations.store(0, Ordering::Relaxed);
        self.multilfp_iterations.store(0, Ordering::Relaxed);
        self.tuples_emitted.store(0, Ordering::Relaxed);
        self.stmts_evaluated.store(0, Ordering::Relaxed);
        self.stmts_skipped.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.plan_cache_misses.store(0, Ordering::Relaxed);
        self.opt_stmts_eliminated.store(0, Ordering::Relaxed);
        self.opt_plans_hash_consed.store(0, Ordering::Relaxed);
        self.opt_preds_pushed.store(0, Ordering::Relaxed);
        self.lfp_peak_closure.store(0, Ordering::Relaxed);
        self.join_index_reuses.store(0, Ordering::Relaxed);
        self.analyze_checked.store(0, Ordering::Relaxed);
        self.analyze_warnings.store(0, Ordering::Relaxed);
        self.sat_checked.store(0, Ordering::Relaxed);
        self.sat_pruned.store(0, Ordering::Relaxed);
        self.requests_admitted.store(0, Ordering::Relaxed);
        self.requests_rejected.store(0, Ordering::Relaxed);
        self.requests_coalesced.store(0, Ordering::Relaxed);
        self.stream_chunks.store(0, Ordering::Relaxed);
        self.interval_rewrites.store(0, Ordering::Relaxed);
        self.interval_rows_scanned.store(0, Ordering::Relaxed);
        self.exec_timeouts.store(0, Ordering::Relaxed);
        self.budget_aborts.store(0, Ordering::Relaxed);
        self.panics_contained.store(0, Ordering::Relaxed);
        self.requests_timed_out.store(0, Ordering::Relaxed);
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "joins={} unions={} lfp={}({} iters) multilfp={}({} iters) tuples={} stmts={}+{} skipped cache={}/{} hit/miss opt={}-stmts/{}-cse/{}-pushed peak={} idx={} analyzed={}({} warns) sat={}/{}-pruned serve={}+{}-rej/{}-coal/{}-chunks interval={}/{}-scanned govern={}-timeout/{}-budget/{}-panic/{}-503",
            self.joins,
            self.unions,
            self.lfp_invocations,
            self.lfp_iterations,
            self.multilfp_invocations,
            self.multilfp_iterations,
            self.tuples_emitted,
            self.stmts_evaluated,
            self.stmts_skipped,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.opt_stmts_eliminated,
            self.opt_plans_hash_consed,
            self.opt_preds_pushed,
            self.lfp_peak_closure,
            self.join_index_reuses,
            self.analyze_checked,
            self.analyze_warnings,
            self.sat_checked,
            self.sat_pruned,
            self.requests_admitted,
            self.requests_rejected,
            self.requests_coalesced,
            self.stream_chunks,
            self.interval_rewrites,
            self.interval_rows_scanned,
            self.exec_timeouts,
            self.budget_aborts,
            self.panics_contained,
            self.requests_timed_out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = Stats {
            joins: 1,
            lfp_iterations: 3,
            ..Default::default()
        };
        let b = Stats {
            joins: 2,
            unions: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.joins, 3);
        assert_eq!(a.unions, 5);
        assert_eq!(a.lfp_iterations, 3);
    }

    #[test]
    fn display_is_compact() {
        let s = Stats::default().to_string();
        assert!(s.contains("joins=0"));
    }

    #[test]
    fn shared_stats_round_trip() {
        let shared = SharedStats::new();
        let a = Stats {
            joins: 2,
            tuples_emitted: 10,
            stmts_evaluated: 3,
            ..Default::default()
        };
        shared.record(&a);
        shared.record(&a);
        shared.plan_cache_hit();
        shared.plan_cache_miss();
        shared.plan_cache_miss();
        let snap = shared.snapshot();
        assert_eq!(snap.joins, 4);
        assert_eq!(snap.tuples_emitted, 20);
        assert_eq!(snap.stmts_evaluated, 6);
        assert_eq!((snap.plan_cache_hits, snap.plan_cache_misses), (1, 2));
        shared.reset();
        assert_eq!(shared.snapshot(), Stats::default());
    }

    #[test]
    fn record_opt_accumulates_pass_counters() {
        let shared = SharedStats::new();
        let o = crate::opt::OptStats {
            stmts_eliminated: 3,
            plans_hash_consed: 2,
            preds_pushed: 5,
            ..Default::default()
        };
        shared.record_opt(&o);
        shared.record_opt(&o);
        let snap = shared.snapshot();
        assert_eq!(snap.opt_stmts_eliminated, 6);
        assert_eq!(snap.opt_plans_hash_consed, 4);
        assert_eq!(snap.opt_preds_pushed, 10);
        let mut merged = Stats::default();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.opt_preds_pushed, 20);
        shared.reset();
        assert_eq!(shared.snapshot(), Stats::default());
    }

    #[test]
    fn analyze_check_counts_checks_and_warnings() {
        let shared = SharedStats::new();
        shared.analyze_check(0);
        shared.analyze_check(2);
        let snap = shared.snapshot();
        assert_eq!(snap.analyze_checked, 2);
        assert_eq!(snap.analyze_warnings, 2);
        let mut merged = Stats::default();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.analyze_checked, 4);
        assert!(merged.to_string().contains("analyzed="));
        shared.reset();
        assert_eq!(shared.snapshot(), Stats::default());
    }

    #[test]
    fn sat_check_counts_checks_and_prunes() {
        let shared = SharedStats::new();
        shared.sat_check(false);
        shared.sat_check(true);
        shared.sat_check(true);
        let snap = shared.snapshot();
        assert_eq!(snap.sat_checked, 3);
        assert_eq!(snap.sat_pruned, 2);
        let mut merged = Stats::default();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!((merged.sat_checked, merged.sat_pruned), (6, 4));
        assert!(merged.to_string().contains("sat="));
        shared.reset();
        assert_eq!(shared.snapshot(), Stats::default());
    }

    #[test]
    fn serving_counters_round_trip() {
        let shared = SharedStats::new();
        shared.request_admitted();
        shared.request_admitted();
        shared.request_admitted();
        shared.request_rejected();
        shared.request_coalesced();
        shared.add_stream_chunks(5);
        let snap = shared.snapshot();
        assert_eq!(snap.requests_admitted, 3);
        assert_eq!(snap.requests_rejected, 1);
        assert_eq!(snap.requests_coalesced, 1);
        assert_eq!(snap.stream_chunks, 5);
        let mut merged = Stats::default();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.requests_admitted, 6);
        assert_eq!(merged.stream_chunks, 10);
        assert!(merged.to_string().contains("serve="));
        shared.reset();
        assert_eq!(shared.snapshot(), Stats::default());
    }

    #[test]
    fn governance_counters_round_trip() {
        let shared = SharedStats::new();
        shared.exec_timeout();
        shared.exec_timeout();
        shared.budget_abort();
        shared.panic_contained();
        shared.request_timed_out();
        let snap = shared.snapshot();
        assert_eq!(snap.exec_timeouts, 2);
        assert_eq!(snap.budget_aborts, 1);
        assert_eq!(snap.panics_contained, 1);
        assert_eq!(snap.requests_timed_out, 1);
        let mut merged = Stats::default();
        merged.merge(&snap);
        merged.merge(&snap);
        assert_eq!(merged.exec_timeouts, 4);
        assert_eq!(merged.panics_contained, 2);
        assert!(merged.to_string().contains("govern="));
        shared.reset();
        assert_eq!(shared.snapshot(), Stats::default());
    }

    #[test]
    fn shared_stats_concurrent_increments_are_not_lost() {
        let shared = SharedStats::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let shared = &shared;
                s.spawn(move || {
                    for _ in 0..1000 {
                        shared.plan_cache_hit();
                        shared.record(&Stats {
                            joins: 1,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.plan_cache_hits, 8000);
        assert_eq!(snap.joins, 8000);
    }
}
