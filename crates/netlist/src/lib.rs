//! Gate-level netlist substrate for high-level power modeling.
//!
//! This crate provides the "ground truth" layer that the survey's high-level
//! estimators are validated against: a structural gate-level netlist with a
//! characterized technology library, functional (zero-delay) and event-driven
//! (real-delay, glitch-capturing) simulators, switched-capacitance power
//! accounting, probabilistic estimation, and a family of parameterized
//! circuit generators used as benchmark circuits.
//!
//! # Example
//!
//! Build a 4-bit ripple-carry adder, simulate it under random vectors, and
//! compute its average dynamic power:
//!
//! ```
//! use hlpower_netlist::{Netlist, Library, ZeroDelaySim, streams};
//! use hlpower_netlist::gen;
//!
//! # fn main() -> Result<(), hlpower_netlist::NetlistError> {
//! let mut nl = Netlist::new();
//! let a = nl.input_bus("a", 4);
//! let b = nl.input_bus("b", 4);
//! let zero = nl.constant(false);
//! let sum = gen::ripple_adder(&mut nl, &a, &b, zero);
//! nl.output_bus("sum", &sum);
//!
//! let lib = Library::default();
//! let mut sim = ZeroDelaySim::new(&nl)?;
//! let activity = sim.run(streams::random(7, nl.input_count()).take(1000))?;
//! let report = activity.power(&nl, &lib);
//! assert!(report.total_power_uw() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Matrix- and table-style numerics read more clearly with explicit index
// loops; silence clippy's iterator-style suggestion for them.
#![allow(clippy::needless_range_loop)]

mod cone;
mod editor;
mod error;
mod event;
pub mod gen;
mod incremental;
pub mod ingest;
pub mod io;
mod library;
mod montecarlo;
mod netlist;
pub mod power;
mod prob;
mod sim;
mod simwide;
pub mod streams;
pub mod words;

pub use cone::{hold_word, ResimScratch};
pub use editor::NetlistEditor;
pub use error::{NetlistError, SourceFormat, SrcLoc};
pub use event::{EventDrivenSim, TimedActivity};
pub use incremental::{ConeResim, EditSession, IncrementalSim};
pub use ingest::{
    emit_verilog, emitted_net_names, ingest_auto, ingest_str, parse_edif, parse_verilog,
    sniff_format, structurally_equivalent,
};
pub use io::{parse_netlist, write_netlist, ParseNetlistError};
pub use library::{GateKind, Library};
pub use montecarlo::{
    monte_carlo_glitch_power_seeded_threads_kernel, monte_carlo_power_seeded_threads_kernel,
    simulate_lanes, simulate_packed_glitch_lanes, simulate_packed_lanes, LaneRequest, McKernel,
    MonteCarloOptions, MonteCarloResult, StoppingReplay, TimedKernel,
};
pub use netlist::{Bus, GroupId, Netlist, NodeId, NodeKind};
pub use power::attribution::{attribute, AttributionReport, NodeAttribution, RollupEntry};
pub use power::{GroupPower, PowerModel, PowerReport};
pub use prob::{ProbabilityAnalysis, SignalStats};
pub use sim::{Activity, ZeroDelaySim};
pub use simwide::{
    random_words, simd_level, timed_activity, CompiledKernel, SimdLevel, WideSim, WideTimedSim,
};
pub use words::{Word, W256, W512};
