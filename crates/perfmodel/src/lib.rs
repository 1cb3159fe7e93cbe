//! The monotasks performance model (§6).
//!
//! "Explicitly separating the use of different resources into monotasks
//! allows each job to report the time spent using each resource. These times
//! can be used to construct a simple model for the job's completion time,
//! which can be used to answer what-if questions" (§6).
//!
//! * [`profile`] — aggregates [`monotasks_core::MonotaskRecord`]s into
//!   per-stage resource profiles (total compute monotask time, bytes moved on
//!   disk and network, deserialization separated out).
//! * [`model`] — ideal per-resource completion times (Fig 10), bottleneck
//!   identification, and what-if prediction under a changed [`Scenario`]
//!   (different disks, cluster sizes, in-memory deserialized input, or all at
//!   once — Figs 11–13).
//! * [`bottleneck`] — "how much faster with an infinitely fast X" analysis
//!   replicating the NSDI'15 blocked-time methodology (Fig 14).
//! * [`imbalance`] — per-machine load-imbalance diagnostics, quantifying the
//!   "cannot always be perfectly parallelized" caveat of §6.1 directly from
//!   the records.
//! * [`strawman`] — the models available *without* monotasks: the slot-based
//!   model (Fig 15), the measured-aggregate Spark model (Fig 17), and
//!   slot-share resource attribution for concurrent jobs (Fig 16).
//! * [`replay`](mod@replay) — fault-aware what-ifs (DESIGN.md §10): predicts a faulty
//!   run's makespan from a fault-free profile and a [`cluster::FaultPlan`],
//!   with per-event penalty attribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottleneck;
pub mod imbalance;
pub mod model;
pub mod profile;
pub mod replay;
pub mod strawman;

pub use bottleneck::optimized_resource_runtime;
pub use imbalance::{stage_imbalance, StageImbalance};
pub use model::{predict_job, predict_stage, IdealTimes, Scenario};
pub use profile::{profile_stages, ResourceUse, StageProfile};
pub use replay::{replay, EventPenalty, ReplayOptions, ReplayPrediction, DOCUMENTED_ERROR_BAND};
pub use strawman::{attribute_by_share, slot_model_predict, spec_profile};
