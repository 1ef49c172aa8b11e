#![warn(missing_docs)]

//! Cycle-level performance simulators for the SparTen paper's evaluation.
//!
//! Four architectures are modelled on matched resources (Table 2):
//!
//! * **Dense** — a TPU-like dense accelerator that computes every MAC,
//!   zeros included, with no sparse-computation overheads ([`dense`]);
//! * **One-sided** — the SparTen datapath restricted to feature-map
//!   sparsity (a proxy for Cnvlutin/Cambricon-X/EIE idling) ([`sparten`]);
//! * **SparTen** — two-sided sparsity with no GB, GB-S, or GB-H ([`sparten`]);
//! * **SCNN** — the Cartesian-product dataflow with its intra-PE
//!   underutilization, inter-PE barriers, tile-edge truncation, and
//!   compute-and-discard behaviour on non-unit strides ([`scnn`]).
//!
//! Each simulator returns a [`SimResult`]: cycles, the Figure 10–12
//! execution-time breakdown (non-zero compute, zero compute, intra-cluster
//! loss, inter-cluster loss), memory traffic, and the operation counts the
//! energy model consumes. The SparTen-family work accounting is
//! cross-checked against the exact functional engine in `sparten-core` by
//! integration tests.

pub mod bitserial;
pub mod breakdown;
pub mod buffered;
pub mod cambricon;
pub mod config;
pub mod dense;
pub mod goals;
pub mod probe;
pub mod runner;
pub mod scnn;
pub mod scnn_engine;
pub mod sparten;
pub mod sweeps;
pub mod trace;
pub mod validate;
pub mod workmodel;

pub use bitserial::{booth_digits, simulate_bitserial};
pub use breakdown::{intern_scheme_label, Breakdown, OpCounts, SimResult, Traffic};
pub use buffered::{simulate_buffered, BufferDepth, BufferedResult};
pub use cambricon::{simulate_cambricon, CambriconResult};
pub use config::{MemoryConfig, ScnnConfig, SimConfig};
pub use goals::{design_goal_table, DesignGoals};
pub use probe::{reconcile_and_merge, Probe, StallTally};
pub use runner::{
    simulate, simulate_layer, simulate_spec, simulate_spec_batch, BatchResult, Hooks, Scheme,
};
pub use scnn_engine::{scnn_cartesian_conv, CartesianStats};
pub use sweeps::{density_sweep, scaling_sweep, DensityPoint, ScalingPoint};
pub use trace::{trace_cluster, ChunkEvent, ClusterTraceLog};
pub use validate::{standard_battery, validate_layer, ValidationReport};
pub use workmodel::{LayerMeasurement, MaskModel};
