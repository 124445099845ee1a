//! The `clockmark-cli` tool suite: the watermark-insertion and detection
//! flow as command-line operations over `.cmn` netlist files and CSV power
//! traces.
//!
//! Subcommands (all implemented as library functions so they are
//! unit-testable; the binary is a thin dispatcher):
//!
//! | command | what it does |
//! |---|---|
//! | `parse <file.cmn>` | validate a netlist and print statistics |
//! | `embed <file.cmn> --arch clockmod\|load --out <file>` | insert a watermark and write the result |
//! | `simulate <file.cmn> --cycles N [--vcd f] [--power f]` | run the cycle simulator, optionally dumping waveforms / a power trace |
//! | `attack <file.cmn> --group <name>` | removal-attack (influence) analysis of a cell group |
//! | `detect --trace <csv> --lfsr W [--seed S]` | rotational CPA on a recorded trace |
//! | `experiment --chip i\|ii --cycles N [--trace-out f]` | full pipeline run on a chip model |
//! | `corpus build\|ls\|verify\|convert` | manage an on-disk corpus of binary `.cmt` power traces |
//! | `campaign run\|resume\|status` | resumable sharded detection campaigns over a corpus (`run --scenarios` for an attack × defense matrix) |
//! | `scenario report\|template` | render a scenario campaign's detection-rate-under-attack report; write a starter `scenarios.json` |
//! | `serve [--addr A]` | run the concurrent detection server in the foreground |
//! | `client ping\|status\|detect\|detect-corpus\|shutdown` | drive a running server over the wire |
//! | `fleet serve\|run\|status` | shard one campaign across many worker nodes |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod campaign_cmd;
pub mod commands;
mod error;
pub mod fleet_cmd;
pub mod opts;
pub mod scenario_cmd;
pub mod serve_cmd;
pub mod tracefile;

pub use error::ToolError;
