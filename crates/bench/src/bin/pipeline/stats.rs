//! Order statistics for per-pass samples.

/// `n`, first quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles by the method of Python's `statistics.quantiles(values,
    /// n=4)` (the default "exclusive" method), so the numbers printed here
    /// and the ones recomputed from the raw values with Python agree. A
    /// single value is its own quartiles; an empty sample is all zeros.
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Summary {
                n,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            },
            1 => Summary {
                n,
                q1: v[0],
                median: v[0],
                q3: v[0],
            },
            _ => {
                let m = n + 1;
                let q = |i: usize| {
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Summary {
                    n,
                    q1: q(1),
                    median: q(2),
                    q3: q(3),
                }
            }
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
        assert_eq!(Summary::of(&[]).n, 0);
        assert!((Summary::of(&ten).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let hundred_one: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred_one, 50.0), 50.0);
        assert_eq!(percentile(&hundred_one, 99.0), 99.0);
        assert_eq!(percentile(&[10.0, 20.0], 50.0), 15.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
    }
}
