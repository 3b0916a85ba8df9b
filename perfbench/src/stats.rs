//! The benchmark's own statistics: nearest-rank percentiles, the
//! percentile a sample set can support, and the rate-ladder rule.

use std::time::{Duration, Instant};

/// Percentiles considered when choosing the highest supported one.
const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a reported percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`q` in 0..=1) of an ascending sample set:
/// the `ceil(q·n)`-th smallest sample (1-based). `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that has at least
/// [`TAIL_SAMPLES`] samples beyond it in a set of `n`.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&q| samples_beyond(n, q) >= TAIL_SAMPLES)
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 0.5)
}

/// The p99 of `samples`, or `None` when fewer than [`TAIL_SAMPLES`]
/// samples lie beyond it (fewer than 1000 samples).
pub fn supported_p99(samples: &[f64]) -> Option<f64> {
    if samples_beyond(samples.len(), 0.99) < TAIL_SAMPLES {
        return None;
    }
    percentile(&sorted(samples), 0.99)
}

/// Median over consecutive windows of each window's p50 and p99, so
/// that one stall of the box moves one window rather than the result.
/// Uses as many windows as keep at least 1000 samples each (at most
/// `max_windows`); `None` below 1000 samples. Returns `(p50, p99,
/// windows)`.
pub fn windowed(samples: &[f64], max_windows: usize) -> Option<(f64, f64, usize)> {
    let windows = (samples.len() / 1000).min(max_windows);
    if windows == 0 {
        return None;
    }
    let size = samples.len() / windows;
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = samples
        .chunks(size)
        .take(windows)
        .map(|w| {
            let s = sorted(w);
            (
                percentile(&s, 0.5).unwrap_or(0.0),
                percentile(&s, 0.99).unwrap_or(0.0),
            )
        })
        .unzip();
    Some((median(&p50s)?, median(&p99s)?, windows))
}

/// Share of a run's windows its metrics come from: the ones in which
/// the hypervisor stole the least CPU time.
pub const CALM_SHARE: usize = 4;

/// Indices, in order, of the windows in which the hypervisor stole no
/// more CPU time than in the calmest `1/CALM_SHARE` of them (rounded
/// up): every window of a calm run, the calmest quarter of a run a
/// neighbour disturbed. A neighbour on the host that takes the box's
/// cores slows every thread hand-off of the served pipeline, so the
/// windows it hit measure the neighbour more than the program.
pub fn calm_windows(steal: &[f64]) -> Vec<usize> {
    let Some(limit) = percentile(&sorted(steal), 1.0 / CALM_SHARE as f64) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

/// Outcome of one open-loop rung of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Requests the rung sent.
    pub sent: usize,
    /// Client p99 latency in µs, timed from when each request was due;
    /// `None` when the rung finished too few requests to support it.
    pub p99_us: Option<f64>,
    /// Requests rejected or failed during the rung.
    pub rejected: usize,
    /// Requests in flight halfway through the rung.
    pub backlog_mid: usize,
    /// Requests in flight when the rung stopped sending.
    pub backlog_end: usize,
    /// Requests the generator shed because the backlog reached its cap.
    pub shed: usize,
}

/// In-flight growth from mid-rung to rung end that counts as a growing
/// backlog: one full micro-batch or 1% of the rung's requests.
pub fn backlog_slack(sent: usize) -> usize {
    64.max(sent / 100)
}

/// The ladder rule: a rung passes when its p99 is within `limit_us`,
/// nothing was rejected or shed, and its backlog did not grow.
pub fn rung_passes(rung: &Rung, limit_us: f64) -> bool {
    rung.shed == 0
        && rung.rejected == 0
        && rung.p99_us.is_some_and(|p| p <= limit_us)
        && rung.backlog_end <= rung.backlog_mid + backlog_slack(rung.sent)
}

/// Rungs per doubling of the fixed ladder.
const RUNGS_PER_DOUBLING: f64 = 16.0;
/// Rungs the walk jumps while no boundary is known.
const JUMP: usize = 4;

/// Rates of the fixed ladder: 1000·2^(i/16) requests per second, about
/// 4.4% apart.
pub fn ladder_rate(i: usize) -> f64 {
    1000.0 * 2f64.powf(i as f64 / RUNGS_PER_DOUBLING)
}

/// Index of the highest ladder rung at or below `rate` (0 if none).
pub fn ladder_index_below(rate: f64) -> usize {
    (0..400)
        .take_while(|&i| ladder_rate(i) <= rate)
        .last()
        .unwrap_or(0)
}

/// The next rung of the ladder walk, from the rungs run so far (ladder
/// index, passed): jump [`JUMP`] rungs up from the highest pass (or
/// down from the lowest failure while nothing passed) until a failure
/// lies above the highest pass, then step up one rung at a time from
/// that pass. `None` once the rung above the highest pass has failed,
/// or the lowest rung failed.
pub fn next_rung(runs: &[(usize, bool)]) -> Option<usize> {
    let best = runs.iter().filter(|r| r.1).map(|r| r.0).max();
    let fails = runs.iter().filter(|r| !r.1).map(|r| r.0);
    match best {
        None => {
            let lowest = fails.min()?;
            (lowest > 0).then(|| lowest.saturating_sub(JUMP))
        }
        Some(b) => match fails.filter(|&f| f > b).min() {
            None => Some(b + JUMP),
            Some(f) if f == b + 1 => None,
            Some(_) => Some(b + 1),
        },
    }
}

/// Walks the ladder from rung `start`, calling `run(rate)` for each
/// rung (`true` when it passed; a failed rung is tried once more),
/// until [`next_rung`] is done, `max_tries` rungs were run, or `budget`
/// has passed (a slow box must not stretch a run without bound).
/// Returns the rungs run.
pub fn walk_ladder(
    start: usize,
    max_tries: usize,
    budget: Duration,
    mut run: impl FnMut(f64) -> bool,
) -> Vec<(usize, bool)> {
    let began = Instant::now();
    let mut tries = 0;
    let mut runs = Vec::new();
    let mut idx = Some(start);
    while let Some(i) = idx {
        if tries >= max_tries || began.elapsed() >= budget {
            break;
        }
        // A rung fails only when a second try fails too: one stall of
        // the box must not end the walk.
        tries += 1;
        let mut passed = run(ladder_rate(i));
        if !passed && tries < max_tries {
            tries += 1;
            passed = run(ladder_rate(i));
        }
        runs.push((i, passed));
        idx = next_rung(&runs);
    }
    runs
}

/// `rate:ok|fail` per rung run, for the record.
pub fn describe_ladder(runs: &[(usize, bool)]) -> String {
    runs.iter()
        .map(|&(i, ok)| format!("{:.0}:{}", ladder_rate(i), if ok { "ok" } else { "fail" }))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The highest passing rate among the rungs run, if any passed.
pub fn max_rate(runs: &[(usize, bool)]) -> Option<f64> {
    runs.iter()
        .filter(|&&(_, ok)| ok)
        .map(|&(i, _)| ladder_rate(i))
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        let odd: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&odd, 0.5), Some(3.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // p50 of 19 samples is the 10th: only 9 lie beyond it.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
        // No p99 from samples that cannot support it.
        assert_eq!(supported_p99(&[1.0; 999]), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_p99(&s), Some(990.0));
    }

    fn rung(p99: Option<f64>, rejected: usize, mid: usize, end: usize) -> Rung {
        Rung {
            sent: 10_000,
            p99_us: p99,
            rejected,
            backlog_mid: mid,
            backlog_end: end,
            shed: 0,
        }
    }

    #[test]
    fn ladder_rule_needs_p99_no_rejections_and_steady_backlog() {
        assert!(rung_passes(&rung(Some(900.0), 0, 10, 30), 1000.0));
        assert!(rung_passes(&rung(Some(1000.0), 0, 10, 110), 1000.0));
        // p99 over the limit, or unsupported.
        assert!(!rung_passes(&rung(Some(1001.0), 0, 10, 10), 1000.0));
        assert!(!rung_passes(&rung(None, 0, 10, 10), 1000.0));
        // Any rejection fails the rung.
        assert!(!rung_passes(&rung(Some(10.0), 1, 10, 10), 1000.0));
        // Backlog growing by more than the slack fails it.
        assert!(!rung_passes(&rung(Some(10.0), 0, 10, 111), 1000.0));
        let mut shed = rung(Some(10.0), 0, 0, 0);
        shed.shed = 1;
        assert!(!rung_passes(&shed, 1000.0));
    }

    #[test]
    fn windows_each_support_a_p99() {
        assert!(windowed(&vec![1.0; 999], 5).is_none());
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(windowed(&v, 5), Some((499.0, 989.0, 5)));
        assert_eq!(windowed(&v, 2).map(|w| w.2), Some(2));
        // A stall in one window leaves the median window untouched.
        v[..1000].iter_mut().for_each(|x| *x += 1e6);
        assert_eq!(windowed(&v, 5), Some((499.0, 989.0, 5)));
    }

    #[test]
    fn calm_windows_are_the_least_stolen_in_order() {
        let steal = [0.3, 0.0, 0.2, 0.01, 0.0, 0.1, 0.4, 0.02, 0.5];
        assert_eq!(calm_windows(&steal), vec![1, 3, 4]);
        // Windows as calm as the calmest quarter all count.
        assert_eq!(calm_windows(&[0.0, 0.1, 0.0, 0.0]), vec![0, 2, 3]);
        assert_eq!(calm_windows(&[0.0; 8]), (0..8).collect::<Vec<_>>());
        assert_eq!(calm_windows(&[0.5]), vec![0]);
        assert!(calm_windows(&[]).is_empty());
    }

    #[test]
    fn ladder_is_fixed_and_geometric() {
        assert_eq!(ladder_rate(0), 1000.0);
        assert!((ladder_rate(16) - 2000.0).abs() < 1e-9);
        assert_eq!(ladder_index_below(1999.0), 15);
        assert_eq!(ladder_index_below(2000.0), 16);
        assert_eq!(ladder_index_below(10.0), 0);
    }

    #[test]
    fn ladder_walk_stops_at_a_failure_just_above_a_pass() {
        assert_eq!(next_rung(&[(5, true)]), Some(9));
        assert_eq!(next_rung(&[(5, true), (9, true)]), Some(13));
        // A failure above the highest pass: step up from the pass.
        assert_eq!(next_rung(&[(5, true), (9, false)]), Some(6));
        assert_eq!(next_rung(&[(5, true), (9, false), (6, true)]), Some(7));
        assert_eq!(
            next_rung(&[(5, true), (9, false), (6, true), (7, false)]),
            None
        );
        assert_eq!(next_rung(&[(5, true), (9, false), (6, false)]), None);
        // Starting on a failure jumps down until something passes.
        assert_eq!(next_rung(&[(9, false)]), Some(5));
        assert_eq!(next_rung(&[(9, false), (5, true)]), Some(6));
        assert_eq!(next_rung(&[(2, false)]), Some(0));
        assert_eq!(next_rung(&[(2, false), (0, false)]), None);
        let runs = [(5, true), (9, false), (6, true), (7, false)];
        assert_eq!(max_rate(&runs), Some(ladder_rate(6)));
        assert_eq!(max_rate(&[(0, false)]), None);
    }

    #[test]
    fn a_failed_rung_gets_a_second_try() {
        // Capacity between rungs 6 and 7; rung 9 fails once by chance.
        let mut calls = Vec::new();
        let hour = Duration::from_secs(3600);
        let runs = walk_ladder(5, 20, hour, |rate| {
            calls.push(rate);
            rate < ladder_rate(7)
        });
        assert_eq!(runs, vec![(5, true), (9, false), (6, true), (7, false)]);
        assert_eq!(calls.len(), 6);
        // The try budget bounds the walk.
        assert_eq!(walk_ladder(0, 3, hour, |_| true).len(), 3);
        assert_eq!(walk_ladder(0, 3, Duration::ZERO, |_| true).len(), 0);
    }
}
