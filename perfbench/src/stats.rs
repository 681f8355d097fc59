//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// never touched).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of the last tenth of `in_order` over the mean of its first tenth:
/// how much slower the end of a request stream ran than its start.
pub fn late_early_ratio(in_order: &[f64]) -> f64 {
    let tenth = in_order.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    ratio(
        mean(&in_order[in_order.len() - tenth..]),
        mean(&in_order[..tenth]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn late_early_compares_tenths() {
        let mut v = vec![1.0; 20];
        v[18] = 3.0;
        v[19] = 3.0;
        assert_eq!(late_early_ratio(&v), 3.0);
        assert_eq!(late_early_ratio(&[1.0; 5]), 0.0);
    }
}
