//! The fleet benchmark: drives `mca_fleet::FleetDriver` through the paper's
//! per-slot closed loop on three seeded workloads, checks every output
//! against a tenant-alone replica, and reports end-to-end metrics or, in a
//! separate traced run, a per-layer breakdown. See `fleetbench/README.md`.

pub mod bench;
pub mod replica;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workload;
