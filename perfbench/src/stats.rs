//! Order statistics over host-clock samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`: the smallest sample with at
/// least `q·n` samples at or below it; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    s[rank_of(s.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank_of(n, q)
    }
}

/// Fewest samples for which at least `tail` lie beyond the `q` percentile.
pub fn min_samples_for_tail(q: f64, tail: usize) -> usize {
    (1..).find(|&n| beyond(n, q) >= tail).unwrap_or(usize::MAX)
}

/// Shortest window of a closed-loop phase: enough steps that at least ten
/// lie beyond the window's p90.
pub const WINDOW_STEPS: usize = 100;

/// Tail and throughput of a closed-loop phase, each the median over
/// consecutive windows of at least [`WINDOW_STEPS`] steps (one window when
/// the phase is shorter), so a stretch of host interference that covers
/// fewer than half the windows does not move them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoop {
    /// Median step time over the whole phase.
    pub p50: f64,
    /// Median of the windows' nearest-rank p90 step times.
    pub p90: f64,
    /// Median of the windows' steps per wall second.
    pub steps_per_s: f64,
    /// Windows the phase was split into.
    pub windows: usize,
}

/// Summarises a closed-loop phase from its step times (`steps_ms`) and the
/// wall clock at the start of each step plus one final mark when the loop
/// stopped (`marks_s`, so `marks_s.len() == steps_ms.len() + 1`). A
/// window's wall time runs from its first step's mark to the next window's,
/// so whatever the loop does between steps counts against throughput.
pub fn closed_loop(steps_ms: &[f64], marks_s: &[f64]) -> ClosedLoop {
    assert_eq!(
        marks_s.len(),
        steps_ms.len() + 1,
        "one mark per step plus the stop"
    );
    let n = steps_ms.len();
    let w = (n / WINDOW_STEPS).max(1);
    let bounds: Vec<usize> = (0..=w).map(|i| i * n / w).collect();
    let (mut p90s, mut rates) = (Vec::with_capacity(w), Vec::with_capacity(w));
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        p90s.push(percentile(&steps_ms[a..b], 0.9));
        rates.push((b - a) as f64 / (marks_s[b] - marks_s[a]));
    }
    ClosedLoop {
        p50: median(steps_ms),
        p90: median(&p90s),
        steps_per_s: median(&rates),
        windows: w,
    }
}

fn rank_of(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_tail_of_one_hundred_samples_is_ten() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(min_samples_for_tail(0.9, 10), WINDOW_STEPS);
        assert_eq!(median(&xs), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn closed_loop_windows_ignore_a_short_slow_stretch() {
        // 500 steps of 1 ms, one window of them 3x slower.
        let steps: Vec<f64> = (0..500)
            .map(|k| if (100..200).contains(&k) { 3.0 } else { 1.0 })
            .collect();
        let mut marks = vec![0.0];
        for t in &steps {
            marks.push(marks.last().unwrap() + t / 1e3);
        }
        let cl = closed_loop(&steps, &marks);
        assert_eq!(cl.windows, 5);
        assert_eq!(cl.p50, 1.0);
        assert_eq!(cl.p90, 1.0);
        assert!((cl.steps_per_s - 1000.0).abs() < 1e-6);
        // A phase shorter than one window is one window.
        let cl = closed_loop(&steps[..50], &marks[..51]);
        assert_eq!(cl.windows, 1);
        assert_eq!(cl.p90, 1.0);
    }
}
