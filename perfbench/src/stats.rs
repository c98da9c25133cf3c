//! The benchmark's own statistics: percentiles, the serving ladder's
//! qualifying-rung rule and backlog test, and span self time.

/// Percentiles tried, highest first, when choosing the tail to report
/// beside a median.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples (the
/// tolerance keeps decimal percentiles such as 99.9 from rounding up).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile in [`TAIL_CANDIDATES`] with at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its nearest rank, or
/// `None` when even the median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Median (mean of the middle pair for an even count) of ascending samples.
#[must_use]
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// A timing summary: sample count, median and the reportable tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`MIN_BEYOND`] samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises samples in any order; infinite samples (misses) sort last.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: median(&sorted),
            tail: tail_percentile(sorted.len()).map(|p| (p, nearest_rank(&sorted, p))),
        }
    }

    /// Human-readable form, scaled by `scale` and labelled with `unit`.
    #[must_use]
    pub fn render(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {:.3} {unit}", v * scale),
            None => format!("no percentile with >={MIN_BEYOND} samples beyond"),
        };
        format!(
            "median {:.3} {unit}, {tail} (n={})",
            self.median * scale,
            self.n
        )
    }
}

/// The fastest rate over `k` consecutive events of ascending `times`
/// (seconds): the most `k` intervals that fit in a second anywhere in the
/// series, or `None` with `k` or fewer intervals.
#[must_use]
pub fn fastest_stretch(times: &[f64], k: usize) -> Option<f64> {
    if k == 0 {
        return None;
    }
    times
        .windows(k + 1)
        .map(|w| k as f64 / (w[k] - w[0]))
        .filter(|r| r.is_finite())
        .reduce(f64::max)
}

/// The lowest median among `parts` consecutive, near-equal chunks of
/// `samples` (in the order they were taken); infinite samples sort last.
/// On a shared host this is the series' quietest stretch.
///
/// # Panics
///
/// Panics when `parts` is 0 or exceeds the number of samples.
#[must_use]
pub fn best_chunk_median(samples: &[f64], parts: usize) -> f64 {
    assert!(
        parts > 0 && parts <= samples.len(),
        "{parts} chunks of {}",
        samples.len()
    );
    let cut = |i: usize| i * samples.len() / parts;
    (0..parts)
        .map(|i| Summary::of(&samples[cut(i)..cut(i + 1)]).median)
        .fold(f64::INFINITY, f64::min)
}

/// What one rung of the serving rate ladder produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, windows per second.
    pub rate: f64,
    /// False when the generator, not the server, fell behind schedule.
    pub valid: bool,
    /// 99th-percentile latency in microseconds, misses counted as infinite.
    pub p99_us: f64,
    /// Whether the client-side backlog grew over the rung.
    pub backlog_growing: bool,
}

/// The highest rung that is valid, meets `budget_us` at p99 and kept its
/// backlog flat; 0 when no rung qualifies.
#[must_use]
pub fn max_qualifying_rate(rungs: &[Rung], budget_us: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.valid && r.p99_us <= budget_us && !r.backlog_growing)
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// Whether a backlog sampled over a rung (outstanding windows at each
/// send) grew: the mean of the last quarter exceeds twice the first
/// quarter's mean plus two windows. A steady rung stays near its first
/// quarter; a rung beyond capacity keeps climbing until admission sheds.
#[must_use]
pub fn backlog_growing(outstanding: &[f64]) -> bool {
    let q = outstanding.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&outstanding[..q]);
    let last = mean(&outstanding[outstanding.len() - q..]);
    last > 2.0 * first + 2.0
}

/// A recorded span: nanoseconds since the trace origin, and the index of
/// the enclosing span on the same thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Stage name.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
    /// Index of the parent span in the same record list.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
#[must_use]
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = ascending(100);
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 99.5), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        let s = ascending(5);
        assert_eq!(nearest_rank(&s, 50.0), 3.0);
        assert_eq!(nearest_rank(&s, 41.0), 3.0);
        assert_eq!(nearest_rank(&s, 40.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_counts_misses_as_slowest() {
        let mut samples = ascending(1000);
        for s in samples.iter_mut().take(11) {
            *s = f64::INFINITY;
        }
        let sum = Summary::of(&samples);
        assert_eq!(sum.n, 1000);
        assert_eq!(sum.tail, Some((99.0, f64::INFINITY)));
        let sum = Summary::of(&ascending(4));
        assert_eq!(sum.median, 2.5);
        assert_eq!(sum.tail, None);
    }

    #[test]
    fn best_chunk_median_picks_the_quietest_stretch() {
        let mut samples = vec![9.0; 12];
        samples[4..8].copy_from_slice(&[2.0, 1.0, 3.0, f64::INFINITY]);
        assert_eq!(best_chunk_median(&samples, 3), 2.5);
        assert_eq!(best_chunk_median(&samples, 1), 9.0);
        assert_eq!(best_chunk_median(&samples, 12), 1.0);
    }

    #[test]
    fn fastest_stretch_finds_the_quickest_run_of_events() {
        // Ten events a second, then a stretch at fifty a second.
        let mut times: Vec<f64> = (0..10).map(|i| f64::from(i) * 0.1).collect();
        times.extend((1..=10).map(|i| 0.9 + f64::from(i) * 0.02));
        let fastest = fastest_stretch(&times, 5).unwrap();
        assert!((fastest - 50.0).abs() < 1e-6, "{fastest}");
        let slowest_window = fastest_stretch(&times[..10], 5).unwrap();
        assert!((slowest_window - 10.0).abs() < 1e-6, "{slowest_window}");
        assert_eq!(fastest_stretch(&times, 19), Some(19.0 / (1.1 - 0.0)));
        assert_eq!(fastest_stretch(&times, 20), None);
        assert_eq!(fastest_stretch(&[1.0, 1.0], 1), None);
    }

    fn rung(rate: f64, valid: bool, p99_us: f64, backlog_growing: bool) -> Rung {
        Rung {
            rate,
            valid,
            p99_us,
            backlog_growing,
        }
    }

    #[test]
    fn highest_qualifying_rung_wins() {
        let rungs = [
            rung(250.0, true, 400.0, false),
            rung(500.0, true, 450.0, false),
            rung(1000.0, true, 900.0, false),
            rung(2000.0, true, 1500.0, false),
            rung(4000.0, true, f64::INFINITY, true),
        ];
        assert_eq!(max_qualifying_rate(&rungs, 1000.0), 1000.0);
        // A backlog or a lagging generator disqualifies a fast-looking rung,
        // but not the rungs below it.
        let rungs = [
            rung(250.0, true, 400.0, false),
            rung(500.0, true, 450.0, true),
            rung(1000.0, false, 300.0, false),
        ];
        assert_eq!(max_qualifying_rate(&rungs, 1000.0), 250.0);
        // A qualifying rung above a failing one still counts.
        let rungs = [
            rung(250.0, true, 1200.0, false),
            rung(500.0, true, 800.0, false),
        ];
        assert_eq!(max_qualifying_rate(&rungs, 1000.0), 500.0);
        assert_eq!(
            max_qualifying_rate(&[rung(250.0, true, 1001.0, false)], 1000.0),
            0.0
        );
    }

    #[test]
    fn backlog_test_separates_steady_from_growing() {
        let steady: Vec<f64> = (0..400).map(|i| f64::from(i % 3)).collect();
        assert!(!backlog_growing(&steady));
        let ramp: Vec<f64> = (0..400).map(|i| f64::from(i) / 10.0).collect();
        assert!(backlog_growing(&ramp));
        // A plateau reached early (admission bound, shedding) is not growth.
        let plateau: Vec<f64> = (0..400).map(|i| f64::from(i.min(20)) * 3.2).collect();
        assert!(!backlog_growing(&plateau));
        assert!(!backlog_growing(&[0.0, 50.0, 90.0]));
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            span("iter", 0, 100, None),
            span("fit", 10, 40, Some(0)),
            span("epoch", 12, 20, Some(1)),
            span("epoch", 20, 30, Some(1)),
            span("roll", 50, 90, Some(0)),
            span("step", 55, 60, Some(4)),
        ];
        assert_eq!(self_times(&spans), vec![30, 12, 8, 10, 35, 5]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        let spans = [
            span("root", 10, 50, None),
            span("a", 0, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 15, 25]);
    }
}
