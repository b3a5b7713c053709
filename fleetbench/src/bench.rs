//! One benchmark run: set up, drive the closed loop, check every output and
//! compute the end-to-end or per-layer metrics.

use crate::replica::{ReplicaFleet, SlotCounts};
use crate::session::{Offered, Session};
use crate::stats::{median, percentile, RecordAccounting};
use crate::trace::{self, Tracer};
use crate::workload::{Generator, Shape};
use mca_core::{PredictorStatsSnapshot, WorkloadForecast};
use mca_fleet::{FleetMetrics, TenantMetrics};
use mca_offload::TenantId;
use mca_snapshot::SnapshotStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Timed slots every run holds at least: ten beyond p99.
pub const MIN_TIMED_SLOTS: usize = 1_000;
/// Timed slots the quality metrics cover, so they are a pure function of
/// the seed whatever the machine's speed.
pub const QUALITY_SLOTS: usize = 1_000;
/// Measurement never runs longer than this, whatever `--seconds` asks.
pub const MAX_MEASURE: Duration = Duration::from_secs(120);
/// Traced slots whose raw spans are kept for the JSON trace file; later
/// slots are folded into the totals and their spans dropped.
pub const RETAINED_TRACED_SLOTS: usize = 16;
/// Checkpoint/restore round trips after the timed phase.
pub const CHECKPOINT_ROUNDS: usize = 8;
/// Slots each restored session drives before the next round trip.
pub const RESUMED_SLOTS: usize = 25;
/// Engine threads of the untraced runs (never more than the machine has).
pub const ENGINE_THREADS: usize = 2;

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run asks for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub shape: Shape,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Per-layer traced run (1 engine thread) instead of the end-to-end run.
    pub trace: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics of the requested kind, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Every correctness failure (empty when the run is correct).
    pub failures: Vec<String>,
    /// Allocation attempts in the timed window.
    pub attempted: usize,
    /// Infeasible allocations plus failed placements in the timed window.
    pub failed: usize,
    /// Engine threads the run drove.
    pub threads: usize,
    /// Timed slots.
    pub timed_slots: usize,
    /// The slot latency at p99 (at least ten timed slots lie beyond it).
    /// Reported but not gated: on a shared machine it swings with the
    /// load of other tenants far more than any bound could absorb.
    pub slot_p99_ms: Option<f64>,
    /// Records offered per timed slot.
    pub records_per_slot: f64,
    /// Checkpoint/restore round trips.
    pub checkpoints: usize,
    /// Where the spans were written (traced runs).
    pub trace_file: Option<String>,
}

/// Correctness failures, keeping the first few messages and a count.
#[derive(Debug, Default)]
struct Checks {
    messages: Vec<String>,
    count: usize,
}

impl Checks {
    fn fail(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    fn into_messages(mut self) -> Vec<String> {
        if self.count > self.messages.len() {
            self.messages
                .push(format!("… {} failures in all", self.count));
        }
        self.messages
    }
}

/// Cumulative counters at one point of the run, taken from the replica
/// (whose accounting the checks hold equal to the fleet's).
#[derive(Debug, Clone)]
struct Totals {
    per_tenant: Vec<TenantMetrics>,
    fleet: FleetMetrics,
    predictor: PredictorStatsSnapshot,
    rebalance: [u64; 3],
}

impl Totals {
    fn take(session: &Session, replica: &ReplicaFleet) -> Self {
        let per_tenant = replica.metrics();
        let rebalance = session
            .driver()
            .engine()
            .telemetry()
            .rebalance
            .map_or([0; 3], |r| [r.checks, r.triggers, r.migrations]);
        Self {
            fleet: FleetMetrics::aggregate(per_tenant.clone()),
            per_tenant,
            predictor: replica.predictor_stats(),
            rebalance,
        }
    }
}

/// Checks the fleet's standing forecasts and every tenant's accounting
/// against the replica's.
fn check_slot(session: &Session, replica: &ReplicaFleet, slot: usize, checks: &mut Checks) {
    let engine = session.driver().engine();
    if engine.forecasts() != replica.forecasts() {
        checks.fail(format!(
            "slot {slot}: fleet forecasts differ from the replica"
        ));
    }
    for expected in replica.tenant_metrics() {
        let actual = engine.tenant(expected.tenant).map(|t| t.metrics());
        if actual != Some(expected) {
            checks.fail(format!(
                "slot {slot}: tenant {} accounting differs from the replica",
                expected.tenant
            ));
        }
    }
}

/// Every tenant's standing forecast after one slot.
type Forecasts = Vec<(TenantId, Option<WorkloadForecast>)>;

/// One set-up: a fresh session driven through the warm-up window.
struct Setup {
    session: Session,
    generator: Generator,
    offered: usize,
    /// Construction plus warm-up pushes and steps; input generation and
    /// forecast capture are excluded.
    seconds: f64,
    /// The fleet's forecasts after every warm-up slot.
    forecasts: Vec<Forecasts>,
}

/// Builds a session and drives it through the warm-up window.
fn set_up(options: &Options, threads: usize, checks: &mut Checks) -> Setup {
    let shape = &options.shape;
    let mut generator = shape.generator(options.seed);
    let start = Instant::now();
    let mut session = Session::new(shape, options.seed, threads);
    let mut elapsed = start.elapsed();
    let mut offered = 0;
    let mut forecasts = Vec::with_capacity(shape.window);
    for slot in 0..shape.window {
        let input = generator.next_slot(slot);
        let start = Instant::now();
        let pushed = session.offer(input.pushes);
        let stepped = session.step();
        elapsed += start.elapsed();
        offered += pushed.pushed;
        checks.require(stepped.is_ok(), || {
            format!("warm-up slot {slot}: step failed")
        });
        checks.require(pushed.refused == input.late, || {
            format!(
                "warm-up slot {slot}: {} refused, {} expected late",
                pushed.refused, input.late
            )
        });
        forecasts.push(session.driver().engine().forecasts());
    }
    Setup {
        session,
        generator,
        offered,
        seconds: elapsed.as_secs_f64(),
        forecasts,
    }
}

/// Replays the warm-up window on a fresh replica, checking its forecasts
/// against the fleet's after every slot and its accounting at the end.
fn warm_replica(options: &Options, setup: &Setup, checks: &mut Checks) -> ReplicaFleet {
    let shape = &options.shape;
    let mut replica = ReplicaFleet::new(&shape.config(), &shape.tenant_ids(), shape.shards);
    let mut generator = shape.generator(options.seed);
    let mut disabled = Tracer::disabled();
    for (slot, fleet) in setup.forecasts.iter().enumerate() {
        let input = generator.next_slot(slot);
        replica.tick(slot, &input.accepted, &mut disabled);
        checks.require(replica.forecasts() == *fleet, || {
            format!("warm-up slot {slot}: fleet forecasts differ from the replica")
        });
    }
    check_slot(&setup.session, &replica, shape.window, checks);
    replica
}

/// The live state of a run once set up.
struct Run {
    shape: Shape,
    trace: bool,
    session: Session,
    generator: Generator,
    replica: ReplicaFleet,
    tracer: Tracer,
    checks: Checks,
    /// Records pushed since the session was created.
    offered: usize,
    /// The next slot to drive.
    slot: usize,
    /// The checkpoint buffer, reused across round trips.
    checkpoint: Vec<u8>,
}

/// What driving one slot did.
struct Driven {
    /// Push plus step wall time, ns.
    took_ns: f64,
    offered: Offered,
    counts: SlotCounts,
    /// The tracer length before the slot's spans.
    mark: usize,
}

impl Run {
    /// Pushes one slot's records and steps the driver (the timed part),
    /// then replays the slot on the replica and checks the fleet against it.
    fn drive_slot(&mut self, traced: bool) -> Driven {
        let slot = self.slot;
        let input = self.generator.next_slot(slot);
        self.tracer.set_enabled(traced);
        let mark = self.tracer.len();

        let begin = Instant::now();
        let root = self.tracer.begin("slot", None, slot);
        let span = self.tracer.begin("source.push", Some(root), slot);
        let offered = self.session.offer(input.pushes);
        self.tracer.end(span);
        let span = self.tracer.begin("engine.step", Some(root), slot);
        let stepped = self.session.step();
        self.tracer.end(span);
        self.tracer.end(root);
        let took_ns = begin.elapsed().as_nanos() as f64;

        self.offered += offered.pushed;
        self.checks
            .require(stepped.is_ok(), || format!("slot {slot}: step failed"));
        self.checks.require(offered.refused == input.late, || {
            format!(
                "slot {slot}: {} refused, {} expected late",
                offered.refused, input.late
            )
        });
        let counts = self.replica.tick(slot, &input.accepted, &mut self.tracer);
        check_slot(&self.session, &self.replica, slot, &mut self.checks);
        self.slot += 1;
        Driven {
            took_ns,
            offered,
            counts,
            mark,
        }
    }

    /// Checkpoints the session to memory, restores it with a fresh source,
    /// checks the restored session reports what the original does and
    /// carries on with the restored one. Returns the checkpoint and restore
    /// wall times, ns, and the checkpoint's size.
    fn round_trip(&mut self) -> Option<(f64, f64, SnapshotStats)> {
        let slot = self.slot;
        self.tracer.set_enabled(self.trace);
        let span = self.tracer.begin("snapshot.checkpoint", None, slot);
        let begin = Instant::now();
        let saved = self.session.checkpoint(&mut self.checkpoint);
        let checkpoint_ns = begin.elapsed().as_nanos() as f64;
        self.tracer.end(span);
        let stats = match saved {
            Ok(stats) => stats,
            Err(error) => {
                self.checks
                    .fail(format!("slot {slot}: checkpoint failed: {error}"));
                return None;
            }
        };
        let span = self.tracer.begin("snapshot.restore", None, slot);
        let begin = Instant::now();
        let restored = Session::restore(&self.checkpoint, &self.shape);
        let restore_ns = begin.elapsed().as_nanos() as f64;
        self.tracer.end(span);
        match restored {
            Ok(restored) => {
                self.checks.require(
                    restored.driver().report() == self.session.driver().report(),
                    || format!("slot {slot}: restored session differs from the original"),
                );
                // the restored session carries on; the slots after it are
                // checked against the never-interrupted replica
                self.session = restored;
                Some((checkpoint_ns, restore_ns, stats))
            }
            Err(error) => {
                self.checks
                    .fail(format!("slot {slot}: restore failed: {error}"));
                None
            }
        }
    }
}

/// Per-layer totals folded from the traced slots' spans.
#[derive(Debug, Default)]
struct LayerTotals {
    slots: usize,
    push_ns: u64,
    step_ns: u64,
    unattributed_ns: i128,
    /// Self time per replica layer span name.
    self_ns: BTreeMap<&'static str, u64>,
    malformed: usize,
}

impl LayerTotals {
    /// Folds the spans of one traced slot (those after `mark`).
    fn fold(&mut self, tracer: &Tracer, mark: usize) {
        let spans = &tracer.spans()[mark..];
        if !trace::well_nested(spans, mark) {
            self.malformed += 1;
        }
        let own = trace::self_times(spans, mark);
        let mut step = 0;
        let mut attributed = 0;
        for (span, own) in spans.iter().zip(own) {
            match span.name {
                "slot" | "replica" => {}
                "source.push" => self.push_ns += span.duration_ns(),
                "engine.step" => step += span.duration_ns(),
                layer => {
                    *self.self_ns.entry(layer).or_insert(0) += own;
                    attributed += own;
                }
            }
        }
        self.step_ns += step;
        self.unattributed_ns += i128::from(step) - i128::from(attributed);
        self.slots += 1;
    }

    fn mean(&self, total: f64) -> f64 {
        total / self.slots.max(1) as f64
    }

    fn layer_mean(&self, name: &str) -> f64 {
        self.mean(self.self_ns.get(name).copied().unwrap_or(0) as f64)
    }
}

/// Peak resident set of this process, MiB (0 when unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark once: set-up (several times), the timed phase, the
/// checkpoint phase, and the end-of-run checks.
pub fn run(options: &Options) -> Outcome {
    let shape = options.shape;
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if options.trace {
        1
    } else {
        ENGINE_THREADS.min(available)
    };
    let mut checks = Checks::default();

    // set-up: every repeat is identical; the last one's session is driven
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = set_up(options, threads, &mut checks);
    setup_s.push(setup.seconds);
    for _ in 1..SETUP_REPS {
        drop(setup);
        setup = set_up(options, threads, &mut checks);
        setup_s.push(setup.seconds);
    }
    let replica = warm_replica(options, &setup, &mut checks);
    let mut run = Run {
        shape,
        trace: options.trace,
        session: setup.session,
        generator: setup.generator,
        replica,
        tracer: Tracer::disabled(),
        checks,
        offered: setup.offered,
        slot: shape.window,
        checkpoint: Vec::new(),
    };

    // the timed phase: the warm session, slot after slot; traced runs trace
    // every other slot so the untraced ones give the tracing overhead
    let base = Totals::take(&run.session, &run.replica);
    let mut quality: Option<Totals> = None;
    let mut layers = LayerTotals::default();
    let mut slot_ns: Vec<f64> = Vec::new();
    let mut traced_ns: Vec<f64> = Vec::new();
    let mut untraced_ns: Vec<f64> = Vec::new();
    let mut slot_records: Vec<f64> = Vec::new();
    let mut timed_late = 0usize;
    let mut records_in = 0usize;
    let mut users_out = 0usize;
    let measure = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        if (slot_ns.len() >= MIN_TIMED_SLOTS && elapsed >= measure) || elapsed >= MAX_MEASURE {
            break;
        }
        let traced = options.trace && slot_ns.len().is_multiple_of(2);
        let driven = run.drive_slot(traced);
        slot_ns.push(driven.took_ns);
        if options.trace {
            if traced {
                traced_ns.push(driven.took_ns);
            } else {
                untraced_ns.push(driven.took_ns);
            }
        }
        slot_records.push(driven.offered.pushed as f64);
        timed_late += driven.offered.refused;
        records_in += driven.counts.records_in;
        users_out += driven.counts.users_out;
        if traced {
            layers.fold(&run.tracer, driven.mark);
            if layers.slots > RETAINED_TRACED_SLOTS {
                run.tracer.truncate(driven.mark);
            }
        }
        if slot_ns.len() == QUALITY_SLOTS {
            quality = Some(Totals::take(&run.session, &run.replica));
        }
    }
    let timed = slot_ns.len();
    let timed_offered = slot_records.iter().sum::<f64>() as usize;
    // per-slot counts cover the timed phase only
    let timed_end = Totals::take(&run.session, &run.replica);

    // the checkpoint phase: round trips at a fixed cadence, each restored
    // session driving on under the replica's checks. Kept apart from the
    // timed phase because a restored engine ticks slower than a fresh one.
    let mut checkpoint_ns = Vec::with_capacity(CHECKPOINT_ROUNDS);
    let mut restore_ns = Vec::with_capacity(CHECKPOINT_ROUNDS);
    let mut snapshot_bytes = Vec::with_capacity(CHECKPOINT_ROUNDS);
    let mut snapshot_sections = Vec::with_capacity(CHECKPOINT_ROUNDS);
    let mut resumed_ns = Vec::with_capacity(CHECKPOINT_ROUNDS * RESUMED_SLOTS);
    for _ in 0..CHECKPOINT_ROUNDS {
        if let Some((saved, restored, stats)) = run.round_trip() {
            checkpoint_ns.push(saved);
            restore_ns.push(restored);
            snapshot_bytes.push(stats.bytes as f64);
            snapshot_sections.push(f64::from(stats.sections));
        }
        for _ in 0..RESUMED_SLOTS {
            resumed_ns.push(run.drive_slot(false).took_ns);
        }
    }

    // end-of-run checks: rollups, scan statistics, record accounting
    let mut checks = std::mem::take(&mut run.checks);
    let engine = run.session.driver().engine();
    let end = Totals::take(&run.session, &run.replica);
    checks.require(engine.metrics() == end.fleet, || {
        "fleet metrics differ from the replica rollup".to_string()
    });
    checks.require(engine.predictor_stats() == end.predictor, || {
        "predictor statistics differ from the replica's".to_string()
    });
    let report = run.session.driver().report();
    let accounting = RecordAccounting {
        offered: run.offered,
        ingested: report.records,
        late: report.late_records,
        dropped: report.dropped_records,
    };
    checks.require(accounting.closes(), || {
        format!("records do not close: {accounting:?}")
    });
    checks.require(timed >= MIN_TIMED_SLOTS, || {
        format!("only {timed} timed slots, fewer than {MIN_TIMED_SLOTS}")
    });
    let quality = quality.unwrap_or_else(|| end.clone());

    let attempted = (end.fleet.total_allocations + end.fleet.total_infeasible)
        - (base.fleet.total_allocations + base.fleet.total_infeasible);
    let failed = (end.fleet.total_infeasible + end.fleet.total_placement_failures)
        - (base.fleet.total_infeasible + base.fleet.total_placement_failures);

    let mut sorted = slot_ns.clone();
    sorted.sort_by(f64::total_cmp);
    let slot_p99_ms = percentile(&sorted, 0.99).map(|ns| ns / 1e6);
    let metrics = if options.trace {
        let mut trace_failures = Vec::new();
        let metrics = layer_metrics(LayerInputs {
            layers: &layers,
            base: &base,
            end: &timed_end,
            timed,
            timed_offered,
            timed_late,
            records_in,
            users_out,
            traced_ns: &traced_ns,
            untraced_ns: &untraced_ns,
            resumed_ns: &resumed_ns,
            checkpoint_ns: &checkpoint_ns,
            restore_ns: &restore_ns,
            snapshot_bytes: &snapshot_bytes,
            snapshot_sections: &snapshot_sections,
            failures: &mut trace_failures,
        });
        for failure in trace_failures {
            checks.fail(failure);
        }
        metrics
    } else {
        let p50 = percentile(&sorted, 0.50);
        checks.require(p50.is_some() && slot_p99_ms.is_some(), || {
            "too few timed slots for p50/p99".to_string()
        });
        end_to_end_metrics(&EndToEndInputs {
            shape: &shape,
            p50_ns: p50.unwrap_or(0.0),
            records_per_s: slot_rate(&slot_records, &slot_ns),
            setup_s: median(&setup_s).unwrap_or(0.0),
            checkpoint_ns: median(&checkpoint_ns).unwrap_or(0.0),
            restore_ns: median(&restore_ns).unwrap_or(0.0),
            base: &base,
            quality: &quality,
        })
    };

    let trace_file = options
        .trace
        .then(|| write_trace(options, &run.tracer, &mut checks));
    Outcome {
        metrics,
        failures: checks.into_messages(),
        attempted,
        failed,
        threads,
        timed_slots: timed,
        slot_p99_ms,
        records_per_slot: timed_offered as f64 / timed.max(1) as f64,
        checkpoints: checkpoint_ns.len(),
        trace_file,
    }
}

/// The median over slots of records offered in the slot per second of its
/// push+step time.
fn slot_rate(records: &[f64], slot_ns: &[f64]) -> f64 {
    let rates: Vec<f64> = records
        .iter()
        .zip(slot_ns)
        .map(|(records, ns)| records * 1e9 / ns.max(1.0))
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// Inputs of the end-to-end metrics.
struct EndToEndInputs<'a> {
    shape: &'a Shape,
    p50_ns: f64,
    records_per_s: f64,
    setup_s: f64,
    checkpoint_ns: f64,
    restore_ns: f64,
    base: &'a Totals,
    quality: &'a Totals,
}

/// Mean over tenants of each tenant's forecast accuracy between two
/// points of the run.
fn window_accuracy(base: &[TenantMetrics], end: &[TenantMetrics]) -> f64 {
    let accuracies: Vec<f64> = base
        .iter()
        .zip(end)
        .filter(|(b, e)| e.scored_slots > b.scored_slots)
        .map(|(b, e)| (e.accuracy_sum - b.accuracy_sum) / (e.scored_slots - b.scored_slots) as f64)
        .collect();
    accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64
}

fn end_to_end_metrics(inputs: &EndToEndInputs<'_>) -> Vec<Metric> {
    let (base, quality) = (&inputs.base.fleet, &inputs.quality.fleet);
    let tenant_slots = (inputs.shape.tenants * QUALITY_SLOTS) as f64;
    vec![
        Metric {
            name: "slot_p50_ms",
            value: inputs.p50_ns / 1e6,
            unit: "ms",
        },
        Metric {
            name: "records_per_s",
            value: inputs.records_per_s,
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: inputs.setup_s,
            unit: "s",
        },
        Metric {
            name: "checkpoint_ms",
            value: inputs.checkpoint_ns / 1e6,
            unit: "ms",
        },
        Metric {
            name: "restore_ms",
            value: inputs.restore_ns / 1e6,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
        Metric {
            name: "forecast_accuracy",
            value: window_accuracy(&inputs.base.per_tenant, &inputs.quality.per_tenant),
            unit: "ratio",
        },
        Metric {
            name: "billed_cost_usd",
            value: quality.total_cost - base.total_cost,
            unit: "USD",
        },
        Metric {
            name: "sla_violation_rate",
            value: (quality.total_sla_violations - base.total_sla_violations) as f64 / tenant_slots,
            unit: "1/tenant-slot",
        },
        Metric {
            name: "energy_kwh",
            value: (quality.total_energy_wh - base.total_energy_wh) / 1e3,
            unit: "kWh",
        },
    ]
}

/// Inputs of the per-layer metrics.
struct LayerInputs<'a> {
    layers: &'a LayerTotals,
    base: &'a Totals,
    end: &'a Totals,
    timed: usize,
    timed_offered: usize,
    timed_late: usize,
    records_in: usize,
    users_out: usize,
    traced_ns: &'a [f64],
    untraced_ns: &'a [f64],
    resumed_ns: &'a [f64],
    checkpoint_ns: &'a [f64],
    restore_ns: &'a [f64],
    snapshot_bytes: &'a [f64],
    snapshot_sections: &'a [f64],
    failures: &'a mut Vec<String>,
}

fn layer_metrics(inputs: LayerInputs<'_>) -> Vec<Metric> {
    let layers = inputs.layers;
    let per_slot = |count: usize| count as f64 / inputs.timed.max(1) as f64;
    let delta = |f: fn(&FleetMetrics) -> usize| f(&inputs.end.fleet) - f(&inputs.base.fleet);
    let predictor = |f: fn(&PredictorStatsSnapshot) -> u64| {
        per_slot((f(&inputs.end.predictor) - f(&inputs.base.predictor)) as usize)
    };
    let rebalance =
        |i: usize| per_slot((inputs.end.rebalance[i] - inputs.base.rebalance[i]) as usize);
    let hits = delta(|m| m.total_cache_hits);
    let misses = delta(|m| m.total_cache_misses);

    let names = [
        "ingest.route",
        "timeslot.build",
        "predictor.observe_predict",
        "allocator.allocate",
        "allocator.solve",
        "billing.settle",
    ];
    let attributed: f64 = names.iter().map(|n| layers.layer_mean(n)).sum();
    let step = layers.mean(layers.step_ns as f64);
    let unattributed = layers.mean(layers.unattributed_ns as f64);
    if layers.slots == 0 {
        inputs.failures.push("no traced slot".to_string());
    }
    if layers.malformed > 0 {
        inputs.failures.push(format!(
            "{} traced slots with spans outside their parent",
            layers.malformed
        ));
    }
    if (attributed + unattributed - step).abs() > 1e-6 * step.max(1.0) {
        inputs.failures.push(format!(
            "layer self times {attributed} + unattributed {unattributed} != step {step}"
        ));
    }
    let overhead =
        median(inputs.traced_ns).unwrap_or(0.0) - median(inputs.untraced_ns).unwrap_or(0.0);
    vec![
        Metric {
            name: "source.push_ns",
            value: layers.mean(layers.push_ns as f64),
            unit: "ns/slot",
        },
        Metric {
            name: "source.records",
            value: per_slot(inputs.timed_offered),
            unit: "1/slot",
        },
        Metric {
            name: "source.late",
            value: per_slot(inputs.timed_late),
            unit: "1/slot",
        },
        Metric {
            name: "ingest.route_ns",
            value: layers.layer_mean("ingest.route"),
            unit: "ns/slot",
        },
        Metric {
            name: "timeslot.build_ns",
            value: layers.layer_mean("timeslot.build"),
            unit: "ns/slot",
        },
        Metric {
            name: "timeslot.records_in",
            value: per_slot(inputs.records_in),
            unit: "1/slot",
        },
        Metric {
            name: "timeslot.users_out",
            value: per_slot(inputs.users_out),
            unit: "1/slot",
        },
        Metric {
            name: "engine.step_ns",
            value: step,
            unit: "ns/slot",
        },
        Metric {
            name: "engine.unattributed_ns",
            value: unattributed,
            unit: "ns/slot",
        },
        Metric {
            name: "engine.coverage",
            value: attributed / step.max(1.0),
            unit: "ratio",
        },
        Metric {
            name: "predictor.observe_predict_ns",
            value: layers.layer_mean("predictor.observe_predict"),
            unit: "ns/slot",
        },
        Metric {
            name: "predictor.fast_predictions",
            value: predictor(|s| s.fast_predictions),
            unit: "1/slot",
        },
        Metric {
            name: "predictor.queries",
            value: predictor(|s| s.queries),
            unit: "1/slot",
        },
        Metric {
            name: "predictor.candidates_evaluated",
            value: predictor(|s| s.candidates_evaluated),
            unit: "1/slot",
        },
        Metric {
            name: "allocator.memo_ns",
            value: layers.layer_mean("allocator.allocate"),
            unit: "ns/slot",
        },
        Metric {
            name: "allocator.solve_ns",
            value: layers.layer_mean("allocator.solve"),
            unit: "ns/slot",
        },
        Metric {
            name: "allocator.cache_hit_ratio",
            value: hits as f64 / (hits + misses).max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "allocator.infeasible",
            value: per_slot(delta(|m| m.total_infeasible)),
            unit: "1/slot",
        },
        Metric {
            name: "lp.nodes",
            value: per_slot(delta(|m| m.total_solver_nodes)),
            unit: "1/slot",
        },
        Metric {
            name: "lp.pivots",
            value: per_slot(delta(|m| m.total_solver_pivots)),
            unit: "1/slot",
        },
        Metric {
            name: "billing.settle_ns",
            value: layers.layer_mean("billing.settle"),
            unit: "ns/slot",
        },
        Metric {
            name: "datacenter.placements",
            value: per_slot(delta(|m| m.total_placed_instance_slots)),
            unit: "1/slot",
        },
        Metric {
            name: "datacenter.placement_failures",
            value: per_slot(delta(|m| m.total_placement_failures)),
            unit: "1/slot",
        },
        Metric {
            name: "datacenter.sla_violations",
            value: per_slot(delta(|m| m.total_sla_violations)),
            unit: "1/slot",
        },
        Metric {
            name: "rebalance.checks",
            value: rebalance(0),
            unit: "1/slot",
        },
        Metric {
            name: "rebalance.triggers",
            value: rebalance(1),
            unit: "1/slot",
        },
        Metric {
            name: "rebalance.migrations",
            value: rebalance(2),
            unit: "1/slot",
        },
        Metric {
            name: "snapshot.checkpoint_ns",
            value: median(inputs.checkpoint_ns).unwrap_or(0.0),
            unit: "ns",
        },
        Metric {
            name: "snapshot.restore_ns",
            value: median(inputs.restore_ns).unwrap_or(0.0),
            unit: "ns",
        },
        Metric {
            name: "snapshot.bytes",
            value: median(inputs.snapshot_bytes).unwrap_or(0.0),
            unit: "bytes",
        },
        Metric {
            name: "snapshot.sections",
            value: median(inputs.snapshot_sections).unwrap_or(0.0),
            unit: "count",
        },
        Metric {
            name: "snapshot.resumed_slot_ns",
            value: median(inputs.resumed_ns).unwrap_or(0.0),
            unit: "ns/slot",
        },
        Metric {
            name: "trace.overhead_ns",
            value: overhead,
            unit: "ns/slot",
        },
    ]
}

/// Writes the retained spans as JSON under `fleetbench/out/`, parses the
/// file back and checks every span survived; returns the path.
fn write_trace(options: &Options, tracer: &Tracer, checks: &mut Checks) -> String {
    let dir = std::path::Path::new("fleetbench").join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        options.shape.name(),
        options.seed
    ));
    let header = [
        (
            "workload".to_string(),
            format!("\"{}\"", options.shape.name()),
        ),
        ("seed".to_string(), options.seed.to_string()),
        ("engine_threads".to_string(), "1".to_string()),
    ];
    let json = trace::to_json(&header, tracer.spans());
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, &json))
        .and_then(|()| std::fs::read_to_string(&path));
    match written {
        Ok(text) => match mca_telemetry::json::parse(&text) {
            Ok(value) => {
                let spans = value
                    .get("spans")
                    .and_then(|s| s.as_array())
                    .map_or(0, <[_]>::len);
                checks.require(spans == tracer.len(), || {
                    format!("trace file holds {spans} spans, {} recorded", tracer.len())
                });
            }
            Err(error) => checks.fail(format!("trace file does not parse: {error}")),
        },
        Err(error) => checks.fail(format!("trace file not written: {error}")),
    }
    path.display().to_string()
}
