//! Order statistics and record accounting for the benchmark's reports.

/// Samples that must lie strictly above a reported percentile: a tail
/// percentile resting on fewer samples is noise, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile of `sorted` (ascending) by nearest rank, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
///
/// Nearest rank picks the sample at 1-based rank `ceil(q * n)`, so the
/// samples beyond it number `n - ceil(q * n)`: p99 needs at least 1,000
/// samples, p50 at least 20.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for an even count), or
/// `None` for no values. Used where a handful of repeats is all there is
/// (set-up, checkpoints), so no tail requirement applies.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Where every offered record went. The benchmark counts what it offers;
/// the driver reports the other three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordAccounting {
    /// Records the benchmark pushed into a source.
    pub offered: usize,
    /// Records the driver ingested into a slot.
    pub ingested: usize,
    /// Records a source refused because their slot had already ticked.
    pub late: usize,
    /// Records the engine dropped for naming an unknown tenant.
    pub dropped: usize,
}

impl RecordAccounting {
    /// Whether every offered record is accounted for exactly once.
    pub fn closes(&self) -> bool {
        self.ingested
            .checked_add(self.late)
            .and_then(|n| n.checked_add(self.dropped))
            == Some(self.offered)
    }
}
