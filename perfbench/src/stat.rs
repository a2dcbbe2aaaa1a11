//! Summary statistics: the percentile rule, medians and the host-speed
//! adjustment.

/// The percentiles the benchmark may report, in per-mille, highest first.
const PERCENTILES_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 500];

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples.
pub fn beyond(per_mille: usize, n: usize) -> usize {
    n.saturating_sub(rank(per_mille, n))
}

/// The highest reportable percentile (per-mille) for `n` samples: the
/// highest one with at least [`MIN_BEYOND`] samples beyond it.
pub fn tail_per_mille(n: usize) -> Option<usize> {
    PERCENTILES_PER_MILLE
        .into_iter()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    sorted[rank(per_mille, sorted.len()) - 1]
}

/// The 99th percentile, refused when fewer than [`MIN_BEYOND`] samples lie
/// beyond it (fewer than 1000 samples).
pub fn p99(sorted: &[f64]) -> Result<f64, String> {
    if beyond(990, sorted.len()) < MIN_BEYOND {
        return Err(format!(
            "p99 needs {MIN_BEYOND} samples beyond it; only {} operations completed \
             (highest reportable percentile: {:?} per mille)",
            sorted.len(),
            tail_per_mille(sorted.len())
        ));
    }
    Ok(percentile(sorted, 990))
}

/// Fewest operations a measured window completes, the fewest that
/// support a p99. A window runs past its length until at least this many
/// operations were attempted, so a slower program reports its latency
/// instead of failing.
pub const MIN_OPS: usize = 1000;

/// Most groups a window's operations are split into.
const MAX_GROUPS: usize = 10;

/// Percentile (per-mille) of a class's latencies taken as its reference:
/// its latency at the host's full speed.
const REF_PER_MILLE: usize = 100;

/// Length of the slices whose host speed is estimated, in seconds.
const SLICE_S: f64 = 1.0;

/// Whether a summary adjusts for the host's speed phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Host {
    /// Adjust: a single caller, whose latencies follow the speed of the
    /// core it runs on.
    Adjust,
    /// Summarize as measured: callers and server threads share the cores,
    /// and a latency's deviation from its class says more about how they
    /// interleaved than about the host's speed.
    AsMeasured,
}

/// One completed operation.
#[derive(Clone, Copy, Debug)]
struct Op {
    /// Completion time, seconds since the window started.
    end_s: f64,
    /// Latency, ms.
    latency_ms: f64,
    /// The operation's class: operations of one class do the same work.
    class: usize,
}

/// Completed operations of a measured window.
#[derive(Debug, Default)]
pub struct Samples {
    ops: Vec<Op>,
}

/// Throughput and latency of a window.
#[derive(Debug)]
pub struct Summary {
    /// Completed operations per second at full host speed (median over
    /// groups, as are the percentiles).
    pub throughput: f64,
    /// Median latency at full host speed, ms.
    pub p50: f64,
    /// 99th-percentile latency at full host speed, ms.
    pub p99: f64,
    /// Mean latency as measured, ms: the baseline of a traced run, which
    /// is not adjusted.
    pub mean: f64,
    /// Operations summarized.
    pub n: usize,
    /// Groups the medians were taken over.
    pub groups: usize,
    /// Throughput, p50 and p99 as measured, before the host-speed
    /// adjustment.
    pub observed: (f64, f64, f64),
    /// Lowest and highest host slowdown of the window's slices.
    pub slowdown_range: (f64, f64),
}

impl Samples {
    /// Record one operation of `class`.
    pub fn push(&mut self, end_s: f64, latency_ms: f64, class: usize) {
        self.ops.push(Op {
            end_s,
            latency_ms,
            class,
        });
    }

    /// Add another recorder's operations.
    pub fn extend(&mut self, other: Samples) {
        self.ops.extend(other.ops);
    }

    /// Operations recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Slowdown of the host in each [`SLICE_S`] slice of the window: the
    /// median, over the slice's operations, of each latency over its
    /// class's reference latency. The shared host this benchmark runs on
    /// changes speed by up to about 2x in phases lasting seconds, and a
    /// slice's slowdown measures its phase. A class timed once is its own
    /// reference, so a window in which no class repeats (a
    /// `translate-cold` window that ends after its first pass) has no
    /// slowdown and is summarized as measured.
    fn slowdowns(&self, host: Host) -> Vec<f64> {
        let slices = self
            .ops
            .iter()
            .map(|o| slice_of(o.end_s) + 1)
            .max()
            .unwrap_or(0);
        if host == Host::AsMeasured {
            return vec![1.0; slices];
        }
        let classes = self.ops.iter().map(|o| o.class + 1).max().unwrap_or(0);
        let mut by_class = vec![Vec::new(); classes];
        for o in &self.ops {
            by_class[o.class].push(o.latency_ms);
        }
        let reference: Vec<f64> = by_class
            .into_iter()
            .map(|mut lat| {
                lat.sort_by(f64::total_cmp);
                if lat.is_empty() {
                    0.0
                } else {
                    percentile(&lat, REF_PER_MILLE)
                }
            })
            .collect();
        let mut ratios = vec![Vec::new(); slices];
        for o in &self.ops {
            let r = reference[o.class];
            ratios[slice_of(o.end_s)].push(if r > 0.0 { o.latency_ms / r } else { 1.0 });
        }
        ratios
            .iter()
            .map(|r| if r.is_empty() { 1.0 } else { median(r) })
            .collect()
    }

    /// Throughput and latency percentiles of the window at the host's full
    /// speed: each latency is divided by its slice's slowdown, and each
    /// slice's length too. A program change moves every phase alike and so
    /// moves these figures; a host phase moves only its own slices'
    /// slowdowns.
    ///
    /// The adjusted operations, in completion order, are split into up to
    /// ten consecutive groups of at least a thousand, and the summary is
    /// the median over the groups of each group's throughput, p50 and p99,
    /// so interference the adjustment misses moves a few groups, not the
    /// result.
    pub fn summary(&self, host: Host) -> Result<Summary, String> {
        let n = self.ops.len();
        if n < MIN_OPS {
            return Err(format!(
                "p99 needs {MIN_BEYOND} samples beyond it; only {n} operations completed \
                 (highest reportable percentile: {:?} per mille)",
                tail_per_mille(n)
            ));
        }
        let slowdown = self.slowdowns(host);
        let mut ops = self.ops.clone();
        ops.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let groups = (n / MIN_OPS).min(MAX_GROUPS);
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let mut begin = 0.0;
        for g in 0..groups {
            let chunk = &ops[g * n / groups..(g + 1) * n / groups];
            let end = chunk[chunk.len() - 1].end_s;
            rates.push(chunk.len() as f64 / adjusted_span(begin, end, &slowdown));
            begin = end;
            let mut lat: Vec<f64> = chunk
                .iter()
                .map(|o| o.latency_ms / slowdown[slice_of(o.end_s)])
                .collect();
            lat.sort_by(f64::total_cmp);
            p50s.push(percentile(&lat, 500));
            p99s.push(p99(&lat)?);
        }
        let mut raw: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
        raw.sort_by(f64::total_cmp);
        Ok(Summary {
            throughput: median(&rates),
            p50: median(&p50s),
            p99: median(&p99s),
            mean: raw.iter().sum::<f64>() / n as f64,
            n,
            groups,
            observed: (n as f64 / begin, percentile(&raw, 500), p99(&raw)?),
            slowdown_range: (
                slowdown.iter().copied().fold(f64::INFINITY, f64::min),
                slowdown.iter().copied().fold(0.0, f64::max),
            ),
        })
    }
}

/// Length of the window's interval `[from, to]` in seconds, each slice's
/// part divided by the slice's slowdown.
fn adjusted_span(from: f64, to: f64, slowdown: &[f64]) -> f64 {
    slowdown
        .iter()
        .enumerate()
        .map(|(k, f)| {
            let begin = (k as f64 * SLICE_S).max(from);
            let end = ((k + 1) as f64 * SLICE_S).min(to);
            (end - begin).max(0.0) / f
        })
        .sum()
}

/// The slice an operation completing at `end_s` falls in.
fn slice_of(end_s: f64) -> usize {
    (end_s / SLICE_S) as usize
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(990, 1000), 10);
        assert_eq!(beyond(990, 999), 9);
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(999), Some(950));
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(19), None);
        let sorted: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(p99(&sorted).is_err());
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&sorted).unwrap(), 990.0);
        assert_eq!(percentile(&sorted, 500), 500.0);
    }

    #[test]
    fn summaries_need_a_thousand_operations() {
        let mut s = Samples::default();
        for i in 1..1000 {
            s.push(i as f64 / 100.0, 1.0, i % 4);
        }
        assert!(
            s.summary(Host::Adjust).is_err(),
            "999 operations cannot support a p99"
        );
        s.push(10.0, 1.0, 0);
        let one = s.summary(Host::Adjust).unwrap();
        assert_eq!(one.n, 1000);
        assert!((one.throughput - 100.0).abs() < 1e-9);
        assert_eq!((one.p50, one.p99), (1.0, 1.0));
    }

    /// A host that runs at half speed for 6 of 20 seconds: classes of 1,
    /// 2 and 4 ms take twice as long in the slow phase. The summary sees
    /// through the phase; the observed figures do not.
    #[test]
    fn summaries_adjust_for_slow_host_phases() {
        let mut s = Samples::default();
        let mut t = 0.0;
        let mut i = 0;
        while t < 20.0 {
            let class = i % 3;
            let slow = (7.0..13.0).contains(&t);
            let latency = [1.0, 2.0, 4.0][class] * if slow { 2.0 } else { 1.0 };
            t += latency / 1e3;
            s.push(t, latency, class);
            i += 1;
        }
        let sum = s.summary(Host::Adjust).unwrap();
        assert!((sum.p50 - 2.0).abs() < 1e-9, "p50 {}", sum.p50);
        assert!((sum.p99 - 4.0).abs() < 1e-9, "p99 {}", sum.p99);
        // full speed: three operations per 7 ms
        assert!((sum.throughput / (3e3 / 7.0) - 1.0).abs() < 0.01);
        assert!(sum.observed.0 < 0.9 * sum.throughput);
        assert_eq!(sum.slowdown_range, (1.0, 2.0));
    }

    #[test]
    fn summaries_take_medians_over_groups_of_a_thousand() {
        // 3500 operations of one class: three groups; one slow burst of
        // single operations (not a host phase) moves one group only
        let mut s = Samples::default();
        for i in 0..3500 {
            let slow = (1200..2300).contains(&i) && i % 2 == 0;
            s.push(i as f64 / 100.0, if slow { 50.0 } else { 1.0 }, 0);
        }
        let three = s.summary(Host::Adjust).unwrap();
        assert_eq!(three.groups, 3);
        assert_eq!((three.p50, three.p99), (1.0, 1.0));
        let mut s = Samples::default();
        for i in 0..50_000 {
            s.push(i as f64, 1.0, 0);
        }
        assert_eq!(s.summary(Host::Adjust).unwrap().groups, 10);
    }

    #[test]
    fn never_repeating_operations_are_summarized_as_measured() {
        let mut s = Samples::default();
        for i in 0..1500 {
            let latency = if i < 1000 { 1.0 } else { 3.0 };
            s.push(i as f64 / 100.0, latency, i);
        }
        let sum = s.summary(Host::Adjust).unwrap();
        assert_eq!(sum.slowdown_range, (1.0, 1.0));
        assert_eq!((sum.p50, sum.p99), (sum.observed.1, sum.observed.2));
        assert!((sum.throughput - sum.observed.0).abs() < 1e-9);
    }

    #[test]
    fn summaries_as_measured_ignore_host_phases() {
        let mut s = Samples::default();
        for i in 0..2000 {
            let latency = if (500..1500).contains(&i) { 2.0 } else { 1.0 };
            s.push(i as f64 / 100.0, latency, i % 2);
        }
        let sum = s.summary(Host::AsMeasured).unwrap();
        assert_eq!(sum.slowdown_range, (1.0, 1.0));
        assert_eq!((sum.groups, sum.p50, sum.p99), (2, 1.0, 2.0));
        assert_eq!(s.summary(Host::Adjust).unwrap().p99, 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
