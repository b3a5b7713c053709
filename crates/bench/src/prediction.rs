//! Performance harness for the nearest-slot workload predictor: the pruned,
//! allocation-free search of `mca-core` versus the retained naive baseline
//! (full scan, per-candidate set construction — the seed's cost model).
//!
//! The headline configuration follows the acceptance bar of the time-slot
//! engine rework: a 5,000-slot × 3-group × 200-users-per-group synthetic
//! history, on which the pruned search must be at least 5× faster than the
//! naive scan. `cargo run --release -p mca-bench --bin bench_prediction`
//! regenerates `BENCH_prediction.json` at the repository root.
//!
//! A second harness ([`run_index`]) scales the history from 100k to 1M
//! slots and times the vantage-point **metric index** against the pruned
//! linear scan at every point, asserting the serial and indexed paths (and
//! the naive scan, where checked) all return the bit-identical forecast.
//! The acceptance bar: ≥5× over the pruned scan at 1M slots and sub-linear
//! growth (10× more history must cost the indexed path <3× more time).

use mca_core::{IndexPolicy, SlotHistory, TimeSlot, WorkloadPredictor};
use mca_offload::{AccelerationGroupId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Shape of the synthetic prediction workload.
#[derive(Debug, Clone, Copy)]
pub struct PredictionWorkload {
    /// Number of historical slots (`H`).
    pub slots: usize,
    /// Number of acceleration groups.
    pub groups: usize,
    /// Nominal users per group per slot.
    pub users_per_group: usize,
}

impl PredictionWorkload {
    /// The acceptance-bar configuration: 5,000 slots × 3 groups × 200 users.
    pub fn headline() -> Self {
        Self {
            slots: 5_000,
            groups: 3,
            users_per_group: 200,
        }
    }

    /// The acceleration-group universe of this workload.
    pub fn group_ids(&self) -> Vec<AccelerationGroupId> {
        (1..=self.groups as u8).map(AccelerationGroupId).collect()
    }
}

/// Builds a drifting synthetic history: each group's user population is a
/// contiguous id window that slides slowly over time while the load ramps
/// diurnally, so consecutive slots share most users (as the paper's traces
/// do) and distances between far-apart slots are large — the regime the
/// signature pruning exploits.
pub fn synthetic_history(workload: &PredictionWorkload) -> SlotHistory {
    let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED);
    let mut history = SlotHistory::hourly();
    for hour in 0..workload.slots {
        history.push(synthetic_slot(workload, hour, &mut rng));
    }
    history
}

/// The probe used as the "current" slot: a fresh slot resembling (but not
/// equal to) the most recent history entries.
pub fn current_probe_slot(workload: &PredictionWorkload) -> TimeSlot {
    let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED ^ 0x5bd1e995);
    synthetic_slot(workload, workload.slots, &mut rng)
}

fn synthetic_slot(workload: &PredictionWorkload, hour: usize, rng: &mut StdRng) -> TimeSlot {
    let mut slot = TimeSlot::new(hour);
    for (g, group) in workload.group_ids().into_iter().enumerate() {
        // diurnal ramp: load swings ±25% around nominal with period 24
        let phase = (hour % 24) as f64 / 24.0 * std::f64::consts::TAU;
        let ramp = 1.0 + 0.25 * phase.sin();
        let load = ((workload.users_per_group as f64 * ramp).round() as usize).max(1);
        // the user-id window drifts by ~2% of the population per slot
        let drift = hour * (workload.users_per_group / 50).max(1);
        let base = (g * 1_000_000 + drift) as u32;
        for u in 0..load as u32 {
            // small churn: a few ids are replaced by out-of-window users
            let id = if rng.gen_bool(0.02) {
                base + u + rng.gen_range(1u32..50)
            } else {
                base + u
            };
            slot.assign(group, UserId(id));
        }
    }
    slot
}

/// Measurements of one pruned-versus-naive comparison.
#[derive(Debug, Clone)]
pub struct PredictionBenchReport {
    /// The workload shape measured.
    pub workload: PredictionWorkload,
    /// Number of predictions timed per implementation.
    pub rounds: usize,
    /// Mean wall-clock time of one naive prediction, milliseconds.
    pub naive_ms: f64,
    /// Mean wall-clock time of one pruned prediction, milliseconds.
    pub pruned_ms: f64,
}

impl PredictionBenchReport {
    /// Naive time over pruned time.
    pub fn speedup(&self) -> f64 {
        self.naive_ms / self.pruned_ms
    }

    /// The report as a JSON object (hand-rolled: serde_json is unavailable
    /// offline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"history_slots\": {},\n  \
             \"groups\": {},\n  \"users_per_group\": {},\n  \"rounds\": {},\n  \
             \"naive_ms_per_prediction\": {:.4},\n  \"pruned_ms_per_prediction\": {:.4},\n  \
             \"speedup\": {:.2}\n}}",
            self.workload.slots,
            self.workload.groups,
            self.workload.users_per_group,
            self.rounds,
            self.naive_ms,
            self.pruned_ms,
            self.speedup(),
        )
    }
}

/// Times `rounds` naive and pruned `NearestSlot` predictions over the same
/// predictor state and probe, and checks both return identical forecasts.
pub fn run(workload: &PredictionWorkload, rounds: usize) -> PredictionBenchReport {
    assert!(rounds > 0, "at least one timed round");
    let history = synthetic_history(workload);
    let probe = current_probe_slot(workload);
    let mut predictor = WorkloadPredictor::new(workload.group_ids(), history.slot_length_ms);
    predictor.set_history(history);

    // correctness first: the pruned search must reproduce the naive forecast
    let fast = predictor.predict(&probe).expect("non-empty history");
    let naive = predictor.predict_naive(&probe).expect("non-empty history");
    assert_eq!(
        fast, naive,
        "pruned search diverged from the naive reference"
    );

    let naive_ms = time_ms(rounds, || {
        std::hint::black_box(predictor.predict_naive(&probe).expect("non-empty history"));
    });
    let pruned_ms = time_ms(rounds, || {
        std::hint::black_box(predictor.predict(&probe).expect("non-empty history"));
    });
    PredictionBenchReport {
        workload: *workload,
        rounds,
        naive_ms,
        pruned_ms,
    }
}

/// Shape of the metric-index scaling sweep: one predictor, histories of
/// growing size, pruned linear scan versus vantage-point index at each.
#[derive(Debug, Clone)]
pub struct IndexScanWorkload {
    /// History sizes swept, ascending (the history grows incrementally, so
    /// every size extends the previous one).
    pub sizes: Vec<usize>,
    /// Number of acceleration groups.
    pub groups: usize,
    /// Nominal users per group per slot.
    pub users_per_group: usize,
    /// Pivot count of the vantage-point index.
    pub pivots: usize,
    /// Largest size at which the naive full scan is also checked for
    /// forecast identity (it is infeasible to run at 1M slots).
    pub verify_naive_up_to: usize,
}

impl IndexScanWorkload {
    /// The acceptance-bar sweep: 100k → 1M slots; the index must beat the
    /// pruned linear scan ≥5× at 1M, and 10× more history must cost it <3×
    /// more time.
    pub fn headline() -> Self {
        Self {
            sizes: vec![100_000, 300_000, 1_000_000],
            groups: 3,
            users_per_group: 48,
            pivots: IndexPolicy::DEFAULT_PIVOTS,
            verify_naive_up_to: 100_000,
        }
    }

    /// The CI smoke shape: one small size, agreement gating only.
    pub fn smoke() -> Self {
        Self {
            sizes: vec![6_000],
            groups: 3,
            users_per_group: 12,
            pivots: IndexPolicy::DEFAULT_PIVOTS,
            verify_naive_up_to: 6_000,
        }
    }
}

/// One point of the index scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct IndexScanPoint {
    /// History size at this point.
    pub slots: usize,
    /// Mean wall-clock time of one pruned linear-scan prediction, ms.
    pub pruned_ms: f64,
    /// Mean wall-clock time of one indexed prediction, ms (index build
    /// excluded — it is amortized over the history's lifetime).
    pub indexed_ms: f64,
    /// Whether the serial and indexed paths (and the naive scan, where
    /// checked) all returned the bit-identical forecast.
    pub forecasts_identical: bool,
}

impl IndexScanPoint {
    /// Pruned linear-scan time over indexed time.
    pub fn speedup(&self) -> f64 {
        self.pruned_ms / self.indexed_ms
    }
}

/// Measurements of one index scaling sweep.
#[derive(Debug, Clone)]
pub struct IndexScanReport {
    /// The workload swept.
    pub workload: IndexScanWorkload,
    /// Number of predictions timed per configuration per point.
    pub rounds: usize,
    /// One measurement per swept history size.
    pub points: Vec<IndexScanPoint>,
}

impl IndexScanReport {
    /// Whether every point agreed across every scan path.
    pub fn forecasts_identical(&self) -> bool {
        self.points.iter().all(|p| p.forecasts_identical)
    }

    /// The pruned-over-indexed speedup at the largest swept size.
    pub fn speedup_at_largest(&self) -> Option<f64> {
        self.points.last().map(IndexScanPoint::speedup)
    }

    /// Indexed time at the largest size over indexed time at the smallest:
    /// the sub-linearity figure (a linear search would scale with the size
    /// ratio; the acceptance bar demands <3× for 10× more history).
    pub fn indexed_scaling_ratio(&self) -> Option<f64> {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) if self.points.len() > 1 => {
                Some(last.indexed_ms / first.indexed_ms)
            }
            _ => None,
        }
    }

    /// The report as a JSON object (hand-rolled: serde_json is unavailable
    /// offline).
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"history_slots\": {}, \"pruned_ms_per_prediction\": {:.4}, \
                     \"indexed_ms_per_prediction\": {:.4}, \"speedup\": {:.2}, \
                     \"forecasts_identical\": {} }}",
                    p.slots,
                    p.pruned_ms,
                    p.indexed_ms,
                    p.speedup(),
                    p.forecasts_identical,
                )
            })
            .collect();
        let scaling = self
            .indexed_scaling_ratio()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "null".into());
        format!(
            "{{\n  \"groups\": {},\n  \"users_per_group\": {},\n  \"pivots\": {},\n  \
             \"rounds\": {},\n  \"forecasts_identical\": {},\n  \
             \"speedup_at_largest\": {:.2},\n  \"indexed_scaling_ratio\": {},\n  \
             \"points\": [\n{}\n  ]\n}}",
            self.workload.groups,
            self.workload.users_per_group,
            self.workload.pivots,
            self.rounds,
            self.forecasts_identical(),
            self.speedup_at_largest().unwrap_or(0.0),
            scaling,
            points.join(",\n"),
        )
    }
}

/// Sweeps the vantage-point index against the pruned linear scan over
/// growing history sizes. At every point the serial scan and the indexed
/// scan must return bit-identical forecasts; up to [`IndexScanWorkload::verify_naive_up_to`] slots the naive full scan is
/// held to the same bar. Index build time is excluded from the timed rounds
/// (the predictor maintains it incrementally in production).
pub fn run_index(workload: &IndexScanWorkload, rounds: usize) -> IndexScanReport {
    assert!(rounds > 0, "at least one timed round");
    assert!(
        workload.sizes.windows(2).all(|w| w[0] < w[1]) && !workload.sizes.is_empty(),
        "sweep sizes must be ascending and non-empty"
    );
    let max = *workload.sizes.last().expect("non-empty sweep");
    let template = PredictionWorkload {
        slots: max,
        groups: workload.groups,
        users_per_group: workload.users_per_group,
    };
    let mut rng = StdRng::seed_from_u64(crate::DEFAULT_SEED);
    let mut history = SlotHistory::hourly();
    let mut predictor = WorkloadPredictor::new(template.group_ids(), history.slot_length_ms);
    let mut points = Vec::with_capacity(workload.sizes.len());
    for &size in &workload.sizes {
        while history.len() < size {
            history.push(synthetic_slot(&template, history.len(), &mut rng));
        }
        let probe = current_probe_slot(&PredictionWorkload {
            slots: size,
            ..template
        });
        // linear policy first so set_history does not pay an index build
        // that the pruned timing would then discard
        predictor.set_index_policy(IndexPolicy::linear());
        predictor.set_history(history.clone());

        let reference = predictor.predict(&probe).expect("non-empty history");
        let pruned_ms = time_ms(rounds, || {
            std::hint::black_box(predictor.predict(&probe).expect("non-empty history"));
        });

        predictor.set_index_policy(
            IndexPolicy::indexed()
                .with_pivots(workload.pivots)
                .with_min_indexed_slots(1),
        );
        assert!(
            predictor.index_active(),
            "the index must be live at every sweep point"
        );
        let indexed = predictor.predict(&probe).expect("non-empty history");
        let indexed_ms = time_ms(rounds, || {
            std::hint::black_box(predictor.predict(&probe).expect("non-empty history"));
        });

        let mut forecasts_identical = indexed == reference;
        if size <= workload.verify_naive_up_to {
            forecasts_identical &=
                predictor.predict_naive(&probe).expect("non-empty history") == reference;
        }
        points.push(IndexScanPoint {
            slots: size,
            pruned_ms,
            indexed_ms,
            forecasts_identical,
        });
    }
    IndexScanReport {
        workload: workload.clone(),
        rounds,
        points,
    }
}

/// Prints the index scaling sweep as an aligned table.
pub fn print_index(report: &IndexScanReport) {
    println!(
        "vantage-point index over {} groups x {} users/group, {} pivots ({} rounds)",
        report.workload.groups,
        report.workload.users_per_group,
        report.workload.pivots,
        report.rounds,
    );
    println!(
        "  {:<14} {:>14} {:>14} {:>10} {:>10}",
        "history slots", "pruned ms", "indexed ms", "speedup", "identical"
    );
    for p in &report.points {
        println!(
            "  {:<14} {:>14.3} {:>14.4} {:>9.1}x {:>10}",
            p.slots,
            p.pruned_ms,
            p.indexed_ms,
            p.speedup(),
            p.forecasts_identical,
        );
    }
    if let Some(ratio) = report.indexed_scaling_ratio() {
        let size_ratio = report.points.last().unwrap().slots as f64
            / report.points.first().unwrap().slots as f64;
        println!("  indexed scaling: {ratio:.2}x more time for {size_ratio:.0}x more history",);
    }
}

/// The two prediction reports combined into the `BENCH_prediction.json`
/// document.
pub fn combined_json(pruned: &PredictionBenchReport, index: &IndexScanReport) -> String {
    let pruned = pruned.to_json();
    let pruned = pruned.trim_end();
    let index = index.to_json().replace('\n', "\n  ");
    format!(
        "{{\n  \"benchmark\": \"nearest_slot_prediction\",\n  \"pruned_vs_naive\": {},\n  \
         \"index\": {}\n}}\n",
        indent_object(pruned),
        index,
    )
}

/// Re-indents a one-object JSON string by two spaces for nesting.
fn indent_object(json: &str) -> String {
    json.replace('\n', "\n  ")
}

fn time_ms(rounds: usize, mut body: impl FnMut()) -> f64 {
    body(); // warm-up
    let start = Instant::now();
    for _ in 0..rounds {
        body();
    }
    start.elapsed().as_secs_f64() * 1_000.0 / rounds as f64
}

/// Prints the report as an aligned table.
pub fn print(report: &PredictionBenchReport) {
    println!(
        "nearest-slot prediction over {} slots x {} groups x {} users/group ({} rounds)",
        report.workload.slots,
        report.workload.groups,
        report.workload.users_per_group,
        report.rounds,
    );
    println!("  {:<28} {:>12}", "implementation", "ms/predict");
    println!("  {:<28} {:>12.3}", "naive full scan", report.naive_ms);
    println!(
        "  {:<28} {:>12.3}",
        "pruned nearest-neighbour", report.pruned_ms
    );
    println!("  speedup: {:.1}x", report.speedup());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_and_naive_agree_on_a_small_workload() {
        let workload = PredictionWorkload {
            slots: 60,
            groups: 3,
            users_per_group: 12,
        };
        let report = run(&workload, 2);
        assert!(report.naive_ms > 0.0 && report.pruned_ms > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"history_slots\": 60"));
        assert!(json.contains("speedup"));
    }

    #[test]
    fn index_sweep_agrees_and_reports_every_size() {
        let workload = IndexScanWorkload {
            sizes: vec![60, 120],
            groups: 3,
            users_per_group: 10,
            pivots: 3,
            verify_naive_up_to: 120,
        };
        let report = run_index(&workload, 2);
        assert_eq!(report.points.len(), 2);
        assert!(report.forecasts_identical(), "indexed diverged from serial");
        assert!(report.points.iter().all(|p| p.indexed_ms > 0.0));
        assert!(report.speedup_at_largest().is_some());
        assert!(report.indexed_scaling_ratio().is_some());
        let json = report.to_json();
        assert!(json.contains("\"history_slots\": 120"));
        assert!(json.contains("\"forecasts_identical\": true"));
        assert!(json.contains("\"indexed_scaling_ratio\""));
    }

    #[test]
    fn combined_json_nests_both_reports() {
        let pruned = run(
            &PredictionWorkload {
                slots: 40,
                groups: 2,
                users_per_group: 8,
            },
            1,
        );
        let index = run_index(
            &IndexScanWorkload {
                sizes: vec![40],
                groups: 2,
                users_per_group: 8,
                pivots: 2,
                verify_naive_up_to: 40,
            },
            1,
        );
        let json = combined_json(&pruned, &index);
        assert!(json.contains("\"benchmark\": \"nearest_slot_prediction\""));
        assert!(json.contains("\"pruned_vs_naive\""));
        assert!(json.contains("\"index\""));
        assert!(json.contains("\"points\""));
    }

    #[test]
    fn synthetic_history_is_deterministic_and_diurnal() {
        let workload = PredictionWorkload {
            slots: 48,
            groups: 2,
            users_per_group: 20,
        };
        let a = synthetic_history(&workload);
        let b = synthetic_history(&workload);
        assert_eq!(a, b);
        assert_eq!(a.len(), 48);
        let loads: Vec<usize> = a
            .slots()
            .iter()
            .map(|s| s.load_of(AccelerationGroupId(1)))
            .collect();
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max > min, "load should ramp over the day");
    }
}
