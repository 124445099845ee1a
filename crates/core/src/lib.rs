//! # clockmark — clock-modulation power watermarking
//!
//! A full reproduction of **Kufel, Wilson, Hill, Al-Hashimi, Whatmough,
//! Myers, "Clock-Modulation Based Watermark for Protection of Embedded
//! Processors", DATE 2014** (DOI 10.7873/DATE.2014.053) as a Rust library.
//!
//! ## The idea
//!
//! A *power watermark* lets an IP vendor prove their block is inside a
//! finished chip by measuring the supply current: a small on-chip circuit
//! superimposes a weak pseudo-random power pattern that correlation power
//! analysis (CPA) can pull out of the noise. The prior state of the art
//! spends most of its area on a dedicated *load circuit* of shift
//! registers. This paper's observation: **clock-tree buffers burn more
//! power than data switching** (1.476 µW vs 1.126 µW per register in the
//! authors' 65 nm library), and every design is already full of clock-gated
//! registers — so modulating existing clock-gate enables with the watermark
//! sequence generates the power pattern *for free*, cutting the watermark's
//! area by ~98 % and making it far harder to excise from the RTL.
//!
//! ## What this crate provides
//!
//! - [`WgcConfig`] — the watermark generation circuit (12-bit maximal LFSR
//!   in the silicon experiments), with bit-identical software and
//!   structural (netlist) realisations;
//! - [`ClockModulationWatermark`] (proposed) and [`LoadCircuitWatermark`]
//!   (state of the art), both implementing [`WatermarkArchitecture`];
//! - [`Experiment`] — the end-to-end silicon-measurement pipeline:
//!   cycle-accurate simulation, SoC background (Dhrystone-like workload on
//!   chip-I/chip-II models), shunt + oscilloscope digitisation, rotational
//!   CPA and peak detection;
//! - [`overhead`] — the Table I / Table II area & power analysis;
//! - [`attack`] — the Section VI removal-attack analysis.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), clockmark::ClockmarkError> {
//! use clockmark::{ClockModulationWatermark, Experiment, WgcConfig};
//!
//! // A scaled-down experiment (the paper-scale configuration lives in
//! // Experiment::paper_chip_i() with ClockModulationWatermark::paper()).
//! let architecture = ClockModulationWatermark {
//!     wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
//!     ..ClockModulationWatermark::paper()
//! };
//! let outcome = Experiment::quick(15_000, 42).run(&architecture)?;
//!
//! assert!(outcome.detection.detected);
//! println!("{outcome}");
//! # Ok(())
//! # }
//! ```
//!
//! The `clockmark-bench` crate regenerates every table and figure of the
//! paper's evaluation; see `EXPERIMENTS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
pub mod attack;
mod batch;
pub mod campaign;
mod error;
pub mod overhead;
mod pipeline;
pub mod prelude;
pub mod scenario;
pub mod theory;
mod wgc;

pub use arch::{
    ClockModulationWatermark, EmbeddedWatermark, FunctionalBlock, LoadCircuitWatermark,
    WatermarkArchitecture,
};
pub use attack::{
    apply_gate_disable, gate_disable_plan, removal_attack, Attack, AttackContext, AttackReport,
    AttackSpec, AttackVerdict, DefenseSpec, GateDisablePlan, ScenarioSpec, SpecError,
};
pub use batch::{parallel_map, BatchProgress, BatchReport, ExperimentBatch, WorkerStats};
pub use campaign::{
    Campaign, CampaignDir, CampaignError, CampaignLimits, CampaignProgress, CampaignReport,
    CampaignSpec, CampaignStatus, JobOutcome, JobSpec,
};
// `CampaignSpec::algo` is of this type; surface it next to the campaign API.
pub use clockmark_cpa::CpaAlgo;
pub use error::ClockmarkError;
pub use pipeline::{ChipModel, Experiment, ExperimentOutcome, MeasuredRun};
pub use scenario::{
    ScenarioCampaign, ScenarioCell, ScenarioCellReport, ScenarioMatrix, ScenarioReport,
    ScenarioStatus,
};
pub use wgc::{StructuralWgc, WgcConfig};

// Re-export the substrate crates so downstream users need one dependency.
pub use clockmark_corpus as corpus;
pub use clockmark_cpa as cpa;
pub use clockmark_measure as measure;
pub use clockmark_netlist as netlist;
pub use clockmark_power as power;
pub use clockmark_seq as seq;
pub use clockmark_sim as sim;
pub use clockmark_soc as soc;
