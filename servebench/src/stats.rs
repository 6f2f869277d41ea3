//! Order statistics over measured samples.

/// A sample value that converts to `f64` (nanosecond counts included,
/// which `Into<f64>` does not cover).
pub trait Sample: Copy {
    fn value(self) -> f64;
}

impl Sample for f64 {
    fn value(self) -> f64 {
        self
    }
}

impl Sample for u64 {
    fn value(self) -> f64 {
        self as f64
    }
}

/// The `q`-quantile of ascending `sorted` by linear interpolation between
/// closest ranks; 0 when empty.
pub fn quantile_sorted<T: Sample>(sorted: &[T], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0].value(),
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo].value() * (1.0 - frac) + sorted[hi].value() * frac
        }
    }
}

/// The median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile_sorted::<f64>(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[3.0], 0.99), 3.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile_sorted(&[1u64, 2, 3], 1.0), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
