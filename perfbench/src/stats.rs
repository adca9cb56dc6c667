//! Exact statistics over per-request outcome rows.
//!
//! Every latency quantile is computed from the raw samples (nearest-rank on
//! the sorted values), never from histogram bucket edges, and attainment
//! counts every request *sent*: a rejected or failed request misses its
//! limit.

/// Nearest-rank quantile of sorted samples: the smallest value with at
/// least `q · n` samples at or below it. `None` on an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `q` quantile's position: the
/// number of samples "beyond" it that make the quantile meaningful.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The terminal state of one request, as the statistics see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Completed, with its end-to-end latency in µs.
    Done(u64),
    /// Rejected, deadline-exceeded, cancelled or failed.
    Error,
}

/// Percentage of `sent` requests that completed within their limit.
/// `rows` holds `(fate, limit_us)` per request sent.
pub fn attainment_pct(rows: &[(Fate, u64)]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let met = rows
        .iter()
        .filter(|(fate, limit)| matches!(fate, Fate::Done(e2e) if e2e <= limit))
        .count();
    100.0 * met as f64 / rows.len() as f64
}

/// Percentage of requests sent that ended in an error state.
pub fn error_pct(rows: &[(Fate, u64)]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let errors = rows.iter().filter(|(fate, _)| *fate == Fate::Error).count();
    100.0 * errors as f64 / rows.len() as f64
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Check the helpers on a hand-built sample that includes rejected and
/// failed requests. Runs at the start of every benchmark run.
pub fn self_test() -> Result<(), String> {
    let sorted: Vec<u64> = (1..=100).collect();
    let cases = [
        (quantile(&sorted, 0.5), Some(50)),
        (quantile(&sorted, 0.9), Some(90)),
        (quantile(&sorted, 0.99), Some(99)),
        (quantile(&sorted, 1.0), Some(100)),
        (quantile(&sorted, 0.0), Some(1)),
        (quantile(&[7], 0.99), Some(7)),
        (quantile(&[], 0.5), None),
        // Rank ceil(0.5 · 5) = 3: the middle sample, not an average.
        (quantile(&[10, 20, 30, 40, 50], 0.5), Some(30)),
        // Not a bucket edge: 67108863 is what a power-of-two histogram
        // reports for anything in (2^25, 2^26].
        (quantile(&[40_000_000, 41_000_000], 0.5), Some(40_000_000)),
    ];
    for (i, (got, want)) in cases.iter().enumerate() {
        if got != want {
            return Err(format!("quantile case {i}: got {got:?}, want {want:?}"));
        }
    }
    if beyond(100, 0.99) != 1 || beyond(1000, 0.99) != 10 || beyond(2000, 0.5) != 1000 {
        return Err("beyond() miscounts".into());
    }
    // Ten requests sent: six met their limit, one completed late, one was
    // rejected, two failed.
    let rows = [
        (Fate::Done(100), 200),
        (Fate::Done(200), 200), // exactly at the limit counts as met
        (Fate::Done(50), 200),
        (Fate::Done(10), 200),
        (Fate::Done(1_000), 5_000),
        (Fate::Done(4_999), 5_000),
        (Fate::Done(201), 200),
        (Fate::Error, 200),
        (Fate::Error, 5_000),
        (Fate::Error, 200),
    ];
    let attained = attainment_pct(&rows);
    if (attained - 60.0).abs() > 1e-9 {
        return Err(format!("attainment: got {attained}, want 60"));
    }
    let errors = error_pct(&rows);
    if (errors - 30.0).abs() > 1e-9 {
        return Err(format!("error share: got {errors}, want 30"));
    }
    if median(&[3.0, 1.0, 2.0]) != 2.0 || median(&[4.0, 1.0, 3.0, 2.0]) != 2.5 {
        return Err("median".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
