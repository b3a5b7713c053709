//! Unit tests of the benchmark's own arithmetic: percentile selection,
//! span self times, record accounting, and a small end-to-end check that
//! the replica tracks the fleet bit for bit.

use fleetbench::replica::ReplicaFleet;
use fleetbench::session::Session;
use fleetbench::stats::{median, percentile, RecordAccounting, MIN_TAIL_SAMPLES};
use fleetbench::trace::{self, Span, Tracer, NO_SPAN};
use fleetbench::workload::{Kind, Shape};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    // p99 of 1,000 samples is rank 990: exactly ten samples lie beyond it
    let thousand = ascending(1_000);
    assert_eq!(percentile(&thousand, 0.99), Some(990.0));
    // one sample fewer leaves only nine beyond rank 990
    assert_eq!(percentile(&ascending(999), 0.99), None);
    // p50 needs twenty samples: rank 10 of 20 has ten beyond
    assert_eq!(percentile(&ascending(20), 0.50), Some(10.0));
    assert_eq!(percentile(&ascending(19), 0.50), None);
    assert_eq!(MIN_TAIL_SAMPLES, 10);
}

#[test]
fn percentile_rejects_empty_input_and_bad_quantiles() {
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&ascending(100), 1.5), None);
    assert_eq!(percentile(&ascending(100), -0.1), None);
    // the minimum is a valid choice whenever enough samples follow it
    assert_eq!(percentile(&ascending(100), 0.0), Some(1.0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        slot: 0,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 50, 90, Some(0)),
        span("b.inner", 60, 70, Some(2)),
    ];
    // root: 100 - 30 - 40; b: 40 - 10; the grandchild is not subtracted
    // from the root a second time
    assert_eq!(trace::self_times(&spans, 0), vec![30, 30, 30, 10]);
    assert!(trace::well_nested(&spans, 0));
    // self times add back up to the root's duration
    assert_eq!(trace::self_times(&spans, 0).iter().sum::<u64>(), 100);
}

#[test]
fn self_time_honours_the_trace_offset_and_saturates() {
    // the same slot recorded after 5 earlier spans: parent ids are global
    let spans = vec![span("root", 0, 10, None), span("child", 0, 25, Some(5))];
    assert_eq!(trace::self_times(&spans, 5), vec![0, 25]);
    assert!(
        !trace::well_nested(&spans, 5),
        "the child overruns its parent"
    );
}

#[test]
fn tracer_records_nested_spans_and_a_disabled_one_records_none() {
    let mut tracer = Tracer::enabled();
    let root = tracer.begin("root", None, 7);
    let child = tracer.begin("child", Some(root), 7);
    tracer.end(child);
    tracer.end(root);
    assert_eq!(tracer.len(), 2);
    assert_eq!(tracer.spans()[1].parent, Some(root));
    assert!(trace::well_nested(tracer.spans(), 0));

    let json = trace::to_json(&[("seed".to_string(), "7".to_string())], tracer.spans());
    let parsed = mca_telemetry::json::parse(&json).expect("the trace is valid JSON");
    assert_eq!(
        parsed
            .get("spans")
            .and_then(|s| s.as_array())
            .map(<[_]>::len),
        Some(2)
    );
    assert_eq!(parsed.get("seed").and_then(|s| s.as_u64()), Some(7));

    let mut off = Tracer::disabled();
    assert_eq!(off.begin("root", None, 0), NO_SPAN);
    off.end(NO_SPAN);
    assert!(off.is_empty());
}

#[test]
fn accounting_closes_only_when_every_record_lands_once() {
    let closed = RecordAccounting {
        offered: 100,
        ingested: 97,
        late: 2,
        dropped: 1,
    };
    assert!(closed.closes());
    assert!(!RecordAccounting { late: 3, ..closed }.closes());
    assert!(!RecordAccounting {
        ingested: usize::MAX,
        ..closed
    }
    .closes());
}

/// A small shape of `kind`, fast enough for a unit test.
fn small(kind: Kind) -> Shape {
    Shape {
        kind,
        tenants: 4,
        shards: 2,
        window: 6,
        slot_length_ms: Shape::named(match kind {
            Kind::Crowd => "crowd",
            Kind::Drift => "drift",
            Kind::Stream => "stream",
        })
        .expect("a named workload")
        .slot_length_ms,
    }
}

#[test]
fn replica_tracks_the_fleet_through_a_checkpoint_round_trip() {
    for kind in [Kind::Crowd, Kind::Drift, Kind::Stream] {
        let shape = small(kind);
        let mut generator = shape.generator(9);
        let mut session = Session::new(&shape, 9, 2);
        let mut replica = ReplicaFleet::new(&shape.config(), &shape.tenant_ids(), shape.shards);
        let mut tracer = Tracer::disabled();
        let mut late = 0;
        for slot in 0..20 {
            let input = generator.next_slot(slot);
            late += input.late;
            let offered = session.offer(input.pushes);
            assert_eq!(offered.refused, input.late);
            session.step().expect("a shared source never misroutes");
            replica.tick(slot, &input.accepted, &mut tracer);
            let engine = session.driver().engine();
            assert_eq!(
                engine.forecasts(),
                replica.forecasts(),
                "{kind:?} slot {slot}"
            );
            for expected in replica.tenant_metrics() {
                assert_eq!(
                    engine.tenant(expected.tenant).map(|t| t.metrics()),
                    Some(expected)
                );
            }
            if slot == 10 {
                let mut bytes = Vec::new();
                session
                    .checkpoint(&mut bytes)
                    .expect("in-memory checkpoint");
                let restored = Session::restore(&bytes, &shape).expect("restore");
                assert_eq!(restored.driver().report(), session.driver().report());
                session = restored;
            }
        }
        let report = session.driver().report();
        assert_eq!(report.late_records, late);
        assert_eq!(
            report.metrics,
            mca_fleet::FleetMetrics::aggregate(replica.metrics())
        );
        assert_eq!(
            session.driver().engine().predictor_stats(),
            replica.predictor_stats()
        );
        if kind == Kind::Stream {
            assert!(late > 0, "the stream workload sends late records");
        }
    }
}

#[test]
fn traced_replica_spans_nest_under_one_root_per_slot() {
    let shape = small(Kind::Crowd);
    let mut generator = shape.generator(3);
    let mut replica = ReplicaFleet::new(&shape.config(), &shape.tenant_ids(), shape.shards);
    let mut tracer = Tracer::enabled();
    let input = generator.next_slot(0);
    let counts = replica.tick(0, &input.accepted, &mut tracer);
    assert_eq!(counts.records_in, input.accepted.len());
    let spans = tracer.spans();
    assert!(trace::well_nested(spans, 0));
    assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1);
    for layer in [
        "ingest.route",
        "timeslot.build",
        "predictor.observe_predict",
    ] {
        assert!(spans.iter().any(|s| s.name == layer), "missing {layer}");
    }
    // every tenant's first allocation is a miss, solved under the memo span
    assert_eq!(
        spans.iter().filter(|s| s.name == "allocator.solve").count(),
        shape.tenants
    );
}

#[test]
fn same_seed_same_inputs() {
    for name in ["crowd", "drift", "stream"] {
        let shape = Shape::named(name).expect("a named workload");
        let (mut a, mut b) = (shape.generator(5), shape.generator(5));
        let mut c = shape.generator(6);
        let (x, y, z) = (a.next_slot(0), b.next_slot(0), c.next_slot(0));
        assert_eq!(x.accepted, y.accepted, "{name}");
        assert_ne!(x.accepted, z.accepted, "{name}");
    }
    assert!(Shape::named("nope").is_none());
}
