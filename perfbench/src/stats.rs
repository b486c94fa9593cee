//! Order statistics and rate slicing used by every workload.

/// Sorts a copy of `xs` ascending (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(xs, n=4)`, so the spreads
/// printed here are the ones an outside check computes. Needs two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        // Not clamped: near the ends Python extrapolates, and so do we.
        let delta = k as f64 - 4.0 * j as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The standard percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A tail latency: the value, the percentile it sits at, and how many
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// Percentile on the standard ladder.
    pub percentile: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest standard percentile, up to `cap`, with at least ten
/// samples beyond it (nearest-rank). A workload pins its cap so that every
/// run, and every commit, reports the same percentile as long as it has
/// the samples for it. `None` below twenty samples, where not even the
/// median has ten beyond it.
pub fn tail(xs: &[f64], cap: f64) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    let mut best = None;
    for p in TAIL_LADDER.into_iter().filter(|&p| p <= cap) {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || n - rank < 10 {
            break;
        }
        best = Some(Tail {
            value: v[rank - 1],
            percentile: p,
            beyond: n - rank,
            samples: n,
        });
    }
    best
}

/// One unit of timed work: it ran from `start` to `end` (seconds since the
/// window opened) and completed `units` (design cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Work completed.
    pub units: f64,
}

/// Splits `[0, window]` into `slices` equal slices and returns each
/// slice's completion rate (units per second). An op's units are spread
/// evenly over its own interval, so a long op straddling a slice edge
/// counts in both slices in proportion and there is no rounding to whole
/// ops. Concurrent ops (several connections) add up.
pub fn slice_rates(ops: &[Op], window: f64, slices: usize) -> Vec<f64> {
    assert!(slices > 0 && window > 0.0, "need a non-empty window");
    let width = window / slices as f64;
    let mut work = vec![0.0; slices];
    for op in ops {
        let len = op.end - op.start;
        if len <= 0.0 {
            continue;
        }
        let density = op.units / len;
        let first = ((op.start / width).floor().max(0.0) as usize).min(slices - 1);
        let last = ((op.end / width).floor().max(0.0) as usize).min(slices - 1);
        for (s, w) in work.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = op.start.max(s as f64 * width);
            let hi = op.end.min((s + 1) as f64 * width);
            if hi > lo {
                *w += (hi - lo) * density;
            }
        }
    }
    work.into_iter().map(|w| w / width).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(xs, n=4)`.
        let cases: [(&[f64], [f64; 3]); 5] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 3.0, 4.5]),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            (&[10.0, 20.0], [7.5, 15.0, 22.5]),
            (
                &[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[1.5, 2.5, 0.5, 4.0, 3.25, 7.75], [1.25, 2.875, 4.9375]),
        ];
        for (xs, want) in cases {
            let got = quartiles(xs).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{xs:?}: {got:?} != {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
        let s = relative_spread(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0]);
        assert!((s.unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_takes_the_highest_ladder_step_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 100.0).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );

        // 999 samples leave only 9 beyond p99, so the rule steps down.
        let t = tail(&xs[..999], 100.0).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        assert_eq!(t.value, 950.0);

        let t = tail(&xs[..200], 100.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&xs[..20], 100.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&xs[..19], 100.0), None);

        // A cap pins the percentile even when more samples would allow a
        // higher one.
        let t = tail(&xs, 90.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 100));
    }

    #[test]
    fn slice_rates_spread_straddling_ops_in_proportion() {
        // One op of 3 units over [0.5, 2.0] in two 1.5 s slices: 2 units
        // land in the first slice, 1 in the second.
        let ops = [Op {
            start: 0.5,
            end: 2.0,
            units: 3.0,
        }];
        let r = slice_rates(&ops, 3.0, 2);
        assert!((r[0] - 2.0 / 1.5).abs() < 1e-12);
        assert!((r[1] - 1.0 / 1.5).abs() < 1e-12);

        // Two concurrent streams add up; an op past the window is clipped.
        let ops = [
            Op {
                start: 0.0,
                end: 1.0,
                units: 10.0,
            },
            Op {
                start: 0.0,
                end: 1.0,
                units: 10.0,
            },
            Op {
                start: 1.0,
                end: 3.0,
                units: 20.0,
            },
        ];
        let r = slice_rates(&ops, 2.0, 2);
        assert_eq!(r, vec![20.0, 10.0]);
    }
}
