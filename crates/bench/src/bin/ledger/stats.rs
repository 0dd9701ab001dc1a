//! Order statistics, host-speed normalization, and the `compare` verdict.

use crate::host::Calib;

/// The seconds the calibration kernel's parts take on the host the
/// benchmark was defined on (their medians on a 2-vCPU Intel Xeon VM). A
/// run's host times are scaled by this reference over the run's median
/// kernel seconds, and its rates by the inverse, so a run in a slow host
/// regime is corrected back toward the reference.
pub const CALIB_REF: Calib = Calib {
    one_thread_s: 0.050,
    one_thread_cpu_s: 0.045,
    handoff_s: 0.020,
};

/// A run's calibration: each part's median over the run's kernel runs.
pub fn median_calib(calibs: &[Calib]) -> Calib {
    let part = |f: fn(&Calib) -> f64| median(&calibs.iter().map(f).collect::<Vec<_>>());
    Calib {
        one_thread_s: part(|c| c.one_thread_s),
        one_thread_cpu_s: part(|c| c.one_thread_cpu_s),
        handoff_s: part(|c| c.handoff_s),
    }
}

/// A duration of work keeping `threads` threads busy, measured while the
/// kernel took `calib`, expressed at reference host speed.
pub fn normalize_time(secs: f64, calib: Calib, threads: usize) -> f64 {
    secs * CALIB_REF.seconds(threads) / calib.seconds(threads)
}

/// CPU seconds of work, measured while the kernel took `calib`,
/// expressed at reference host speed. Against the kernel's CPU time, not
/// its wall time: neither counts time the host kept a thread waiting.
pub fn normalize_cpu(cpu_s: f64, calib: Calib) -> f64 {
    cpu_s * CALIB_REF.one_thread_cpu_s / calib.one_thread_cpu_s
}

/// A rate of work keeping `threads` threads busy, measured while the
/// kernel took `calib`, expressed at reference host speed.
pub fn normalize_rate(per_sec: f64, calib: Calib, threads: usize) -> f64 {
    per_sec * calib.seconds(threads) / CALIB_REF.seconds(threads)
}

/// The median (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    let [_, q2, _] = quartiles(values);
    q2
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative when `j` was clamped up (two values): extrapolates
        // below the smallest, as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `q`-th percentile (0..=1) of weighted samples, by the nearest rank
/// of the cumulative weight.
pub fn weighted_percentile(samples: &mut [(f64, f64)], q: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = samples.iter().map(|s| s.1).sum();
    let mut seen = 0.0;
    for &(value, weight) in samples.iter() {
        seen += weight;
        if seen >= q * total {
            return value;
        }
    }
    samples.last().map_or(0.0, |s| s.0)
}

/// How a change's runs compare with its parent's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Worse,
    Unresolved,
    Unchanged,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Judges `change` against `parent` (runs paired by position) by the rule
/// of choosing-metrics §8:
///
/// * improved: the change wins at least 9/10 of the pairs (ties count for
///   neither side) and the medians differ by more than the parent's
///   interquartile range;
/// * worse: the change's median is worse than the parent's by more than
///   `bound` (a share of the parent's median);
/// * unresolved: either side's spread is wider than `bound`, unless every
///   run of the change reads better than every run of the parent;
/// * unchanged: otherwise.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let [p1, pm, p3] = quartiles(parent);
    let cm = median(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > p3 - p1 {
        return Verdict::Improved;
    }
    let loss = if higher_is_better { pm - cm } else { cm - pm };
    if loss > bound * pm.abs() {
        return Verdict::Worse;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (spread(parent) > bound || spread(change) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn normalization_undoes_a_uniformly_slow_host() {
        // A host regime twice as slow doubles both the kernel and the
        // measured time, and halves the measured rate.
        let slow = Calib {
            one_thread_s: 2.0 * CALIB_REF.one_thread_s,
            one_thread_cpu_s: 2.0 * CALIB_REF.one_thread_cpu_s,
            handoff_s: 2.0 * CALIB_REF.handoff_s,
        };
        for threads in [1, 2] {
            assert!((normalize_time(1.0, slow, threads) - 0.5).abs() < 1e-12);
            assert!((normalize_rate(1000.0, slow, threads) - 2000.0).abs() < 1e-9);
            assert!((normalize_time(0.3, CALIB_REF, threads) - 0.3).abs() < 1e-12);
        }
        assert!((normalize_cpu(0.01, slow) - 0.005).abs() < 1e-15);
        // A slow handoff alone (the other vCPU busy) leaves single-threaded
        // work as it was, and corrects two-threaded work.
        let busy_peer = Calib {
            handoff_s: 5.0 * CALIB_REF.handoff_s,
            ..CALIB_REF
        };
        assert!((normalize_time(0.3, busy_peer, 1) - 0.3).abs() < 1e-12);
        assert!(normalize_time(0.3, busy_peer, 2) < 0.3);
        // Each part's median is taken on its own.
        let runs = [slow, CALIB_REF, busy_peer];
        let expected = Calib {
            handoff_s: slow.handoff_s,
            ..CALIB_REF
        };
        assert_eq!(median_calib(&runs), expected);
    }

    #[test]
    fn weighted_percentile_honours_weights() {
        let mut samples = vec![(1.0, 1.0), (2.0, 1.0), (100.0, 98.0)];
        assert_eq!(weighted_percentile(&mut samples, 0.5), 100.0);
        assert_eq!(weighted_percentile(&mut samples, 0.01), 1.0);
        let mut even = vec![(3.0, 1.0), (1.0, 1.0), (2.0, 1.0), (4.0, 1.0)];
        assert_eq!(weighted_percentile(&mut even, 0.5), 2.0);
        assert_eq!(weighted_percentile(&mut even, 0.99), 4.0);
    }

    #[test]
    fn compare_verdicts() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Same distribution: unchanged.
        assert_eq!(verdict(&parent, &parent, true, 0.10), Verdict::Unchanged);
        // Every pair won by a gap wider than the parent's spread.
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.10), Verdict::Improved);
        // A lower-is-better metric read the other way round.
        assert_eq!(verdict(&parent, &faster, false, 0.10), Verdict::Unchanged);
        // 15% worse against a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.85).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.10), Verdict::Worse);
        // Wide spread, no clear winner: unresolved.
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&parent, &noisy, true, 0.10), Verdict::Unresolved);
        // 9 of 10 pair wins but a median gap inside the parent's spread
        // is not an improvement.
        let wide = [
            90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 100.0, 100.0,
        ];
        let nudged: Vec<f64> = wide.iter().map(|p| p + 0.5).collect();
        assert_eq!(verdict(&wide, &nudged, true, 0.25), Verdict::Unchanged);
    }
}
