//! # mccp-sdr — the multi-channel communication-system substrate
//!
//! The paper motivates the MCCP with secure software-defined radio: a
//! device holding several simultaneous communication channels, each
//! possibly using a different standard (UMTS / WiFi / WiMax) and therefore
//! a different cipher mode, key size and packet-size profile. This crate
//! is that surrounding system:
//!
//! * [`standards`] — per-standard traffic profiles (packet-size
//!   distributions, mode, key size) standing in for the real air
//!   interfaces we obviously cannot transmit on.
//! * [`channel`] — secure-channel state: key binding, IV/nonce discipline
//!   (deterministic counters, never reused).
//! * [`workload`] — deterministic multi-channel packet-stream generation
//!   (seeded; reproducible across runs).
//! * [`qos`] — a priority-aware dispatch policy (the paper's §VIII
//!   future-work discussion made concrete) plus the service plane's QoS
//!   classes and admission watermarks.
//!
//! Two front ends drive the engines, each with one job:
//!
//! * [`service`] (over [`slab`]) — [`MccpService`], the API for
//!   long-lived channels that open, close and rekey while traffic flows:
//!   a sharded generational channel slab, bounded ingestion queues with
//!   per-class admission control, and an LRU warm set of engine bindings,
//!   so 100k+ mostly-idle sessions are held open safely and cheaply.
//! * [`cluster`] — [`MccpCluster`], which replays a finished workload on
//!   1 to N shards. One shard is the communication-controller role:
//!   drive the control protocol, keep all cores fed, and measure
//!   aggregate throughput and per-packet latency. More shards add
//!   channel-affinity dispatch, work stealing and fault recovery, and
//!   run in parallel through the cluster's one fan-out on scoped threads
//!   (up to [`host_parallelism`] lanes once a pass carries
//!   [`SERIAL_FALLBACK_BYTES`] of payload).

pub mod adversary;
pub mod channel;
pub mod cluster;
pub mod qos;
pub mod service;
pub mod slab;
pub mod standards;
pub mod workload;

pub use adversary::{run_adversary_suite, AdversaryReport};
pub use channel::SecureChannel;
pub use cluster::{
    host_parallelism, ClusterConfig, ClusterReport, MccpCluster, PacketRecord, RunReport,
    ShardReport, VerifyError, VerifyErrorKind, SERIAL_FALLBACK_BYTES,
};
pub use qos::{qos_class, AdmissionConfig, QosClass};
pub use service::{
    BindingStats, Delivery, MccpService, ServiceConfig, ServiceError, ServiceReport,
};
pub use slab::{ChannelSlab, LiveChannel, ServiceChannelId, SlabError};
pub use standards::{Standard, StandardProfile};
pub use workload::{RadioPacket, Workload, WorkloadSpec};
