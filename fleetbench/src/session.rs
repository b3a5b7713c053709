//! A driving session: the fleet driver plus the producer half of its live
//! source, built the way a front-end builds it.

use crate::workload::{Kind, Pushes, Shape};
use mca_fleet::{
    FleetDriver, FleetEngine, RecordSource, SlotBatchHandle, SlotBatchSource, StreamHandle,
    StreamSource,
};
use mca_snapshot::{SnapshotError, SnapshotStats};

/// The producer half of the driver's single shared source.
#[derive(Debug)]
enum Feed {
    /// The slot-batch live lane (`crowd`, `drift`).
    Batch(SlotBatchHandle),
    /// The per-request live stream (`stream`).
    Stream(StreamHandle),
}

/// What one slot's pushes did at the source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Offered {
    /// Records pushed.
    pub pushed: usize,
    /// Pushes the source refused as late.
    pub refused: usize,
}

/// A fleet driver and the feed into its live source.
#[derive(Debug)]
pub struct Session {
    driver: FleetDriver,
    feed: Feed,
}

impl Session {
    /// A fresh session for `shape`: engine construction, tenant onboarding
    /// and source construction — the set-up a deployment pays once.
    pub fn new(shape: &Shape, seed: u64, threads: usize) -> Self {
        let mut engine = FleetEngine::new(shape.config(), shape.shards, seed).with_threads(threads);
        if let Some(rebalancer) = shape.rebalancer() {
            engine = engine.with_rebalancer(rebalancer);
        }
        engine.add_tenants(shape.tenant_ids());
        let mut driver = FleetDriver::new(engine);
        let feed = match shape.kind {
            Kind::Crowd | Kind::Drift => {
                let (handle, source) = SlotBatchSource::channel();
                driver.add_shared_source(source);
                Feed::Batch(handle)
            }
            Kind::Stream => {
                let (handle, source) = StreamSource::channel(shape.slot_length_ms);
                driver.add_shared_source(source);
                Feed::Stream(handle)
            }
        };
        Self { driver, feed }
    }

    /// The driver.
    pub fn driver(&self) -> &FleetDriver {
        &self.driver
    }

    /// Pushes one slot's records into the source.
    ///
    /// # Panics
    ///
    /// Panics if the pushes do not match the source kind (a benchmark bug).
    pub fn offer(&self, pushes: Pushes) -> Offered {
        match (&self.feed, pushes) {
            (Feed::Batch(handle), Pushes::Batch(records)) => {
                let pushed = records.len();
                handle.push_slot(records);
                Offered { pushed, refused: 0 }
            }
            (Feed::Stream(handle), Pushes::Requests(requests)) => {
                let pushed = requests.len();
                let mut refused = 0;
                for (time_ms, record) in requests {
                    if !handle.push(time_ms, record) {
                        refused += 1;
                    }
                }
                Offered { pushed, refused }
            }
            _ => panic!("the workload's pushes do not match its source"),
        }
    }

    /// Drives one slot.
    ///
    /// # Errors
    ///
    /// The driver's error (a shared source never misroutes, so none is
    /// expected).
    pub fn step(&mut self) -> Result<bool, mca_fleet::FleetError> {
        self.driver.step()
    }

    /// Checkpoints the whole session into `bytes` (cleared first; its
    /// capacity is reused, as a service reusing one buffer would).
    ///
    /// # Errors
    ///
    /// A snapshot error from the driver.
    pub fn checkpoint(&mut self, bytes: &mut Vec<u8>) -> Result<SnapshotStats, SnapshotError> {
        bytes.clear();
        self.driver.checkpoint(bytes)
    }

    /// Restores a session from checkpoint bytes with a freshly built source.
    ///
    /// # Errors
    ///
    /// A snapshot error from the driver.
    pub fn restore(bytes: &[u8], shape: &Shape) -> Result<Self, SnapshotError> {
        let (feed, source): (Feed, Box<dyn RecordSource>) = match shape.kind {
            Kind::Crowd | Kind::Drift => {
                let (handle, source) = SlotBatchSource::channel();
                (Feed::Batch(handle), Box::new(source))
            }
            Kind::Stream => {
                let (handle, source) = StreamSource::channel(shape.slot_length_ms);
                (Feed::Stream(handle), Box::new(source))
            }
        };
        let driver = FleetDriver::restore(&mut &bytes[..], &shape.config(), vec![(None, source)])?;
        Ok(Self { driver, feed })
    }
}
