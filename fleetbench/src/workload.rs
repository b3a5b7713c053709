//! The three workloads: their fixed shapes and seeded input generators.
//!
//! Every workload runs the paper's configuration — the three acceleration
//! groups, the exact ILP allocator, the set-edit nearest-slot predictor and
//! billing against a simulated datacenter — and differs only in the shape
//! of what arrives. A workload's shape (tenant sizes and load curves) is
//! fixed; the run's seed draws everything random inside it (churn, arrival
//! order, active users, request times), so inputs are a pure function of the
//! seed and runs on different seeds measure the same workload.

use mca_cloudsim::DatacenterConfig;
use mca_core::SystemConfig;
use mca_fleet::{RebalancerConfig, SlotRecord};
use mca_offload::{AccelerationGroupId, TenantId, UserId};
use mca_workload::{RampScenario, TenantMix, TenantScenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 mixed-shape tenants, ~41k records a slot in one shuffled batch.
    Crowd,
    /// 32 Zipf-sized tenants on slow ramps over a six-week window.
    Drift,
    /// 32 tenants fed request by request through a live stream.
    Stream,
}

/// The fixed shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Which workload.
    pub kind: Kind,
    /// Tenants onboarded.
    pub tenants: usize,
    /// Engine shards.
    pub shards: usize,
    /// Knowledge-base window, slots; timing starts once it is full.
    pub window: usize,
    /// Provisioning slot length, ms.
    pub slot_length_ms: f64,
}

impl Shape {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Self> {
        let hour = 3_600_000.0;
        Some(match name {
            "crowd" => Self {
                kind: Kind::Crowd,
                tenants: 64,
                shards: 8,
                window: 168,
                slot_length_ms: hour,
            },
            "drift" => Self {
                kind: Kind::Drift,
                tenants: 32,
                shards: 7,
                window: 1_008,
                slot_length_ms: hour,
            },
            "stream" => Self {
                kind: Kind::Stream,
                tenants: STREAM_TENANTS,
                shards: 8,
                window: 120,
                slot_length_ms: 60_000.0,
            },
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::Crowd => "crowd",
            Kind::Drift => "drift",
            Kind::Stream => "stream",
        }
    }

    /// The paper's configuration at this workload's window and slot length.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::paper_three_groups()
            .with_history_window(self.window)
            .with_slot_length_ms(self.slot_length_ms)
            .with_datacenter(DatacenterConfig::paper_default())
    }

    /// The rebalancer the workload runs, if any.
    pub fn rebalancer(&self) -> Option<RebalancerConfig> {
        (self.kind == Kind::Drift).then(RebalancerConfig::default)
    }

    /// The onboarded tenants.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        (0..self.tenants as u32).map(TenantId).collect()
    }

    /// A seeded generator of this workload's slots.
    pub fn generator(&self, seed: u64) -> Generator {
        let groups = self.config().groups.ids();
        match self.kind {
            Kind::Crowd => Generator::mix(
                TenantMix::heterogeneous(self.tenants, CROWD_NOMINAL_USERS, groups, SHAPE_SEED),
                seed,
            ),
            Kind::Drift => Generator::mix(drift_mix(self.tenants, groups), seed),
            Kind::Stream => Generator::Stream(StreamGen::new(self.tenants, groups, seed)),
        }
    }

    /// The shape as JSON fields, for the provenance line.
    pub fn describe(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"tenants\": {}, \"shards\": {}, \"window_slots\": {}, \
             \"slot_length_ms\": {}, \"rebalancer\": {}, \
             \"allocation\": \"IlpExact\", \"distance\": \"SetEdit\", \
             \"billing\": \"DatacenterConfig::paper_default\"}}",
            self.name(),
            self.tenants,
            self.shards,
            self.window,
            self.slot_length_ms,
            self.rebalancer().is_some()
        )
    }
}

/// Seed of the fixed workload shapes (tenant sizes, ramp lengths).
const SHAPE_SEED: u64 = 2017;
/// Nominal users per `crowd` tenant (the mix varies it per tenant).
const CROWD_NOMINAL_USERS: usize = 800;
/// Users of the heaviest `drift` tenant.
const DRIFT_MAX_USERS: usize = 400;
/// Zipf exponent of the `drift` tenant sizes.
const DRIFT_ZIPF_S: f64 = 1.1;
/// `stream` tenants.
const STREAM_TENANTS: usize = 32;
/// Users a `stream` tenant can draw its active set from.
const STREAM_POPULATION: u32 = 400;
/// Active users a `stream` tenant draws per slot: `[MIN, MAX)`.
const STREAM_ACTIVE: (usize, usize) = (100, 201);
/// Requests per active `stream` user: `[MIN, MAX)`.
const STREAM_REQUESTS: (usize, usize) = (1, 5);
/// One `stream` request in this many arrives after its slot closed.
const STREAM_LATE_EVERY: usize = 100;

/// Zipf-sized tenants (`max / (t+1)^s`), each on a slow linear ramp to
/// between half and one and a half times its size, churning ~2 % a slot.
fn drift_mix(tenants: usize, groups: Vec<AccelerationGroupId>) -> TenantMix {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    let scenarios = (0..tenants)
        .map(|t| {
            let users = ((DRIFT_MAX_USERS as f64) / ((t + 1) as f64).powf(DRIFT_ZIPF_S))
                .round()
                .max(1.0) as usize;
            let end_percent = rng.gen_range(50..151usize);
            TenantScenario::Ramp(RampScenario {
                start_users: users,
                end_users: (users * end_percent / 100).max(1),
                slots: rng.gen_range(8_000..24_000usize),
            })
        })
        .collect();
    TenantMix::new(SHAPE_SEED, groups, scenarios)
}

/// In-place Fisher–Yates shuffle.
pub fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// How a slot's records reach the driver.
#[derive(Debug)]
pub enum Pushes {
    /// One batch for the slot-batch live lane.
    Batch(Vec<SlotRecord>),
    /// Timestamped requests for the live stream, in arrival order.
    Requests(Vec<(f64, SlotRecord)>),
}

/// One slot of input.
#[derive(Debug)]
pub struct SlotInput {
    /// What the benchmark pushes this slot.
    pub pushes: Pushes,
    /// The records the driver must ingest for this slot.
    pub accepted: Vec<SlotRecord>,
    /// Pushes the source must refuse as late.
    pub late: usize,
}

/// A seeded source of slot inputs.
#[derive(Debug)]
pub enum Generator {
    /// Tenant-mix slots, one shuffled batch each.
    Mix {
        /// The mix.
        mix: TenantMix,
        /// Each tenant's churn stream, drawn from the run's seed.
        streams: Vec<StdRng>,
        /// Arrival-order shuffling.
        order: StdRng,
    },
    /// Per-request live stream.
    Stream(StreamGen),
}

impl Generator {
    fn mix(mix: TenantMix, seed: u64) -> Self {
        let streams = mix
            .tenant_ids()
            .map(|t| {
                StdRng::seed_from_u64(seed ^ u64::from(t.0).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            })
            .collect();
        Self::Mix {
            mix,
            streams,
            order: StdRng::seed_from_u64(seed ^ 0x5BD1_E995),
        }
    }

    /// The input of slot `slot`; call with consecutive slots from 0.
    pub fn next_slot(&mut self, slot: usize) -> SlotInput {
        match self {
            Generator::Mix {
                mix,
                streams,
                order,
            } => {
                let mut batch = Vec::new();
                for (tenant, stream) in mix.tenant_ids().zip(streams.iter_mut()) {
                    batch.extend(
                        mix.slot_records(tenant, slot, stream)
                            .into_iter()
                            .map(|(group, user)| SlotRecord::new(tenant, group, user)),
                    );
                }
                shuffle(&mut batch, order);
                SlotInput {
                    accepted: batch.clone(),
                    pushes: Pushes::Batch(batch),
                    late: 0,
                }
            }
            Generator::Stream(stream) => stream.next_slot(slot),
        }
    }
}

/// The `stream` workload: each tenant redraws 100–200 active users from a
/// fixed population every slot; each active user sends one to four
/// requests at uniform times inside the slot; the slot's requests arrive
/// shuffled, and one in [`STREAM_LATE_EVERY`] is held back and arrives
/// during the next slot, after its own slot closed.
#[derive(Debug)]
pub struct StreamGen {
    groups: Vec<AccelerationGroupId>,
    rng: StdRng,
    /// Each tenant's population, permuted in place by the draws.
    populations: Vec<Vec<u32>>,
    slot_length_ms: f64,
    /// Requests of the previous slot that arrive late, during this one.
    held_back: Vec<(f64, SlotRecord)>,
}

impl StreamGen {
    fn new(tenants: usize, groups: Vec<AccelerationGroupId>, seed: u64) -> Self {
        Self {
            groups,
            rng: StdRng::seed_from_u64(seed ^ 0x57BE_A3A5),
            populations: vec![(0..STREAM_POPULATION).collect(); tenants],
            slot_length_ms: 60_000.0,
            held_back: Vec::new(),
        }
    }

    /// A user's acceleration group: a fixed 60/25/15 split of the
    /// population.
    fn group_of(&self, user: u32) -> AccelerationGroupId {
        let band = user % 20;
        let position = if band < 12 {
            0
        } else if band < 17 {
            1
        } else {
            2
        };
        self.groups[position.min(self.groups.len() - 1)]
    }

    fn next_slot(&mut self, slot: usize) -> SlotInput {
        let start_ms = slot as f64 * self.slot_length_ms;
        let span_ms = self.slot_length_ms as u64;
        let mut requests: Vec<(f64, SlotRecord)> = Vec::new();
        for tenant in 0..self.populations.len() {
            let active = self.rng.gen_range(STREAM_ACTIVE.0..STREAM_ACTIVE.1);
            // partial Fisher–Yates: the first `active` entries are the draw
            for i in 0..active {
                let j = self.rng.gen_range(i..STREAM_POPULATION as usize);
                self.populations[tenant].swap(i, j);
            }
            for i in 0..active {
                let user = self.populations[tenant][i];
                let record = SlotRecord::new(
                    TenantId(tenant as u32),
                    self.group_of(user),
                    UserId(tenant as u32 * STREAM_POPULATION + user),
                );
                let count = self.rng.gen_range(STREAM_REQUESTS.0..STREAM_REQUESTS.1);
                for _ in 0..count {
                    let offset = self.rng.gen_range(0..span_ms) as f64;
                    requests.push((start_ms + offset, record));
                }
            }
        }
        shuffle(&mut requests, &mut self.rng);
        let mut on_time = Vec::with_capacity(requests.len());
        let mut late = Vec::new();
        for (index, request) in requests.into_iter().enumerate() {
            if index % STREAM_LATE_EVERY == STREAM_LATE_EVERY - 1 {
                late.push(request);
            } else {
                on_time.push(request);
            }
        }
        let accepted = on_time.iter().map(|&(_, record)| record).collect();
        let arriving_late = std::mem::replace(&mut self.held_back, late);
        let late_count = arriving_late.len();
        let mut pushes = on_time;
        pushes.extend(arriving_late);
        shuffle(&mut pushes, &mut self.rng);
        SlotInput {
            pushes: Pushes::Requests(pushes),
            accepted,
            late: late_count,
        }
    }
}
