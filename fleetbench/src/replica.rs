//! The tenant-alone replica: the fleet's per-slot loop rebuilt from public
//! layer calls, one tenant at a time, with a span around every layer call.
//!
//! Every slot the replica receives the records the driver ingested and runs
//! route → build → score → predict → allocate (memoized) → bill for each
//! tenant exactly as a fleet tenant does. Its forecasts and
//! [`TenantMetrics`] must equal the fleet's bit for bit; that equality is
//! the benchmark's correctness check, and the replica's spans are its layer
//! breakdown.

use crate::trace::{SpanId, Tracer};
use mca_cloudsim::InstancePool;
use mca_core::{
    accuracy, Allocation, BillingBackend, BillingEngine, CoreError, PredictorStatsSnapshot,
    ResourceAllocator, SystemConfig, TimeSlot, TimeSlotBuilder, WorkloadForecast,
    WorkloadPredictor,
};
use mca_fleet::ingest::bucket_by_shard;
use mca_fleet::{ShardRouter, SlotRecord, TenantMetrics};
use mca_offload::{AccelerationGroupId, TenantId, UserId};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Workload vector → allocation: the memo key of a tenant's solver cache.
type WorkloadVector = Vec<(AccelerationGroupId, usize)>;

/// Memoized allocations per tenant, evicted oldest-first beyond this count.
/// Mirrors the fleet tenant's cache so hits and misses line up exactly.
pub const MEMO_CAP: usize = 1024;

/// Per-slot layer counts the replica observed (spans carry the times).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotCounts {
    /// Records handed to the slot builders.
    pub records_in: usize,
    /// Distinct (group, user) pairs the builders produced.
    pub users_out: usize,
}

/// One tenant's closed loop, built from the same configuration a fleet
/// tenant is.
#[derive(Debug)]
struct TenantReplica {
    id: TenantId,
    predictor: WorkloadPredictor,
    allocator: ResourceAllocator,
    pool: InstancePool,
    billing: BillingEngine,
    metrics: TenantMetrics,
    pending: Option<WorkloadForecast>,
    memo: HashMap<WorkloadVector, Allocation>,
    memo_order: VecDeque<WorkloadVector>,
    slot_length_ms: f64,
}

impl TenantReplica {
    fn new(id: TenantId, config: &SystemConfig) -> Self {
        Self {
            id,
            predictor: config.build_predictor(),
            allocator: config.build_allocator(),
            pool: config.build_pool(),
            billing: config.build_billing(),
            metrics: TenantMetrics::new(id),
            pending: None,
            memo: HashMap::new(),
            memo_order: VecDeque::new(),
            slot_length_ms: config.slot_length_ms,
        }
    }

    /// Score → learn and predict → allocate → bill on the observed `slot`.
    fn tick(&mut self, slot: TimeSlot, now_ms: f64, tracer: &mut Tracer, parent: SpanId) {
        let index = slot.index;
        let groups = self.predictor.groups();
        let observed: WorkloadVector = if self.billing.observes_demand() {
            groups.iter().map(|g| (*g, slot.load_of(*g))).collect()
        } else {
            Vec::new()
        };
        self.metrics.slots += 1;
        let users = slot.total_users();
        self.metrics.total_user_slots += users;
        self.metrics.peak_users = self.metrics.peak_users.max(users);
        if let Some(forecast) = &self.pending {
            self.metrics.scored_slots += 1;
            self.metrics.accuracy_sum += accuracy(forecast, &slot, groups).overall;
        }

        let span = tracer.begin("predictor.observe_predict", Some(parent), index);
        let forecast = self.predictor.observe_and_predict(slot).ok();
        tracer.end(span);
        if let Some(forecast) = &forecast {
            let span = tracer.begin("allocator.allocate", Some(parent), index);
            let allocated = self.allocate_memoized(forecast, tracer, span, index);
            tracer.end(span);
            match allocated {
                Ok(allocation) => {
                    self.metrics.allocations += 1;
                    self.metrics.allocated_instance_slots += allocation.total_instances();
                    let span = tracer.begin("billing.settle", Some(parent), index);
                    let settlement = self.billing.settle(
                        &mut self.pool,
                        &allocation,
                        &observed,
                        self.slot_length_ms,
                        now_ms,
                    );
                    tracer.end(span);
                    self.metrics.total_cost += settlement.cost;
                    self.metrics.sla_violations += settlement.sla_violations;
                    self.metrics.sla_dropped_users += settlement.sla_dropped_users;
                    self.metrics.sla_latency_ms += settlement.sla_latency_ms;
                    self.metrics.energy_wh += settlement.energy_wh;
                    self.metrics.placed_instance_slots += settlement.placements;
                    self.metrics.placement_failures += settlement.placement_failures;
                }
                Err(_) => self.metrics.infeasible_allocations += 1,
            }
        }
        self.pending = forecast;
    }

    /// The memo cache in front of the solver: a hit replays the stored
    /// allocation, a miss solves (inside an `allocator.solve` span) and
    /// stores, evicting the oldest vector at the cap.
    fn allocate_memoized(
        &mut self,
        forecast: &WorkloadForecast,
        tracer: &mut Tracer,
        parent: SpanId,
        slot: usize,
    ) -> Result<Allocation, CoreError> {
        if let Some(hit) = self.memo.get(&forecast.per_group) {
            self.metrics.alloc_cache_hits += 1;
            return Ok(hit.clone());
        }
        self.metrics.alloc_cache_misses += 1;
        let span = tracer.begin("allocator.solve", Some(parent), slot);
        let solved = self.allocator.allocate(forecast);
        tracer.end(span);
        let allocation = solved?;
        self.metrics.solver_nodes += allocation.stats.nodes;
        self.metrics.solver_pivots += allocation.stats.pivots;
        self.metrics.solver_phase1_skips += allocation.stats.phase1_skips;
        if self.memo.len() >= MEMO_CAP {
            if let Some(oldest) = self.memo_order.pop_front() {
                self.memo.remove(&oldest);
                self.metrics.alloc_cache_evictions += 1;
            }
        }
        self.memo
            .insert(forecast.per_group.clone(), allocation.clone());
        self.memo_order.push_back(forecast.per_group.clone());
        Ok(allocation)
    }
}

/// Every tenant of a fleet, each alone, plus the router the fleet's ingest
/// uses.
#[derive(Debug)]
pub struct ReplicaFleet {
    tenants: Vec<TenantReplica>,
    router: ShardRouter,
    slot_length_ms: f64,
    /// Per-tenant assignment buffers, reused across slots.
    pairs: Vec<Vec<(AccelerationGroupId, UserId)>>,
}

impl ReplicaFleet {
    /// Replicas of `tenants` (any order) over `config`, routed as a fleet of
    /// `shards` shards routes.
    pub fn new(config: &SystemConfig, tenants: &[TenantId], shards: usize) -> Self {
        let mut ids = tenants.to_vec();
        ids.sort_unstable();
        ids.dedup();
        Self {
            pairs: vec![Vec::new(); ids.len()],
            tenants: ids
                .into_iter()
                .map(|id| TenantReplica::new(id, config))
                .collect(),
            router: ShardRouter::new(shards),
            slot_length_ms: config.slot_length_ms,
        }
    }

    /// Runs slot `slot` on the records the driver ingested for it. Records
    /// naming no replicated tenant are ignored (the fleet counts them as
    /// dropped). Spans hang under one `replica` root span per slot.
    pub fn tick(&mut self, slot: usize, records: &[SlotRecord], tracer: &mut Tracer) -> SlotCounts {
        let root = tracer.begin("replica", None, slot);
        let span = tracer.begin("ingest.route", Some(root), slot);
        let buckets = bucket_by_shard(records, &self.router, &BTreeSet::new());
        tracer.end(span);
        for bucket in &buckets {
            for record in bucket {
                if let Ok(at) = self.tenants.binary_search_by_key(&record.tenant, |t| t.id) {
                    self.pairs[at].push((record.group, record.user));
                }
            }
        }
        let now_ms = (slot + 1) as f64 * self.slot_length_ms;
        let mut counts = SlotCounts::default();
        for (tenant, pairs) in self.tenants.iter_mut().zip(&mut self.pairs) {
            counts.records_in += pairs.len();
            let span = tracer.begin("timeslot.build", Some(root), slot);
            let mut builder = TimeSlotBuilder::with_capacity(slot, pairs.len());
            builder.extend(pairs.drain(..));
            let built = builder.build();
            tracer.end(span);
            counts.users_out += built.total_users();
            tenant.tick(built, now_ms, tracer, root);
        }
        tracer.end(root);
        counts
    }

    /// The replicas' standing forecasts, sorted by tenant id — the shape of
    /// `FleetEngine::forecasts`.
    pub fn forecasts(&self) -> Vec<(TenantId, Option<WorkloadForecast>)> {
        self.tenants
            .iter()
            .map(|t| (t.id, t.pending.clone()))
            .collect()
    }

    /// The replicas' accounting, sorted by tenant id.
    pub fn metrics(&self) -> Vec<TenantMetrics> {
        self.tenants.iter().map(|t| t.metrics.clone()).collect()
    }

    /// The replicas' accounting by reference, sorted by tenant id.
    pub fn tenant_metrics(&self) -> impl Iterator<Item = &TenantMetrics> {
        self.tenants.iter().map(|t| &t.metrics)
    }

    /// The replicas' summed predictor scan statistics.
    pub fn predictor_stats(&self) -> PredictorStatsSnapshot {
        let mut total = PredictorStatsSnapshot::default();
        for tenant in &self.tenants {
            total.merge(&tenant.predictor.stats());
        }
        total
    }
}
