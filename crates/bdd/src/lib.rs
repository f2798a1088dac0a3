//! A reduced ordered binary decision diagram (ROBDD) package.
//!
//! BDDs are the symbolic workhorse of the survey's control-logic sections
//! (§III-H), the Ferrandi capacitance model (§II-B1), precomputation
//! predictor synthesis and guarded-evaluation observability don't-cares
//! (§III-I). This crate implements a classic unique-table + ITE-cache
//! manager with quantification, composition, satisfy counting, variable
//! reordering by sifting, extraction of BDDs from gate-level netlists, and
//! mapping of BDDs back to multiplexer netlists. A small zero-suppressed
//! BDD (ZDD) module supports symbolic cover manipulation (Minato, survey
//! reference 98).
//!
//! # Example
//!
//! ```
//! use hlpower_bdd::BddManager;
//!
//! let mut m = BddManager::new(3);
//! let a = m.var(0);
//! let b = m.var(1);
//! let c = m.var(2);
//! let ab = m.and(a, b);
//! let f = m.or(ab, c);
//! assert_eq!(m.sat_count(f), 5.0); // |ab + c| over 3 vars
//! ```

#![warn(missing_docs)]

mod manager;
mod netlist_bridge;
pub mod zdd;

pub use manager::{BddManager, BddRef};
pub use netlist_bridge::{
    bdd_to_mux_netlist, bdd_to_timed_shannon, build_node_bdds, build_output_bdds, gate_bdd,
};
