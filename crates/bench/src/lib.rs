//! # ba-bench — the experiment binaries
//!
//! One binary per experiment (`cargo run --release -p ba-bench --bin
//! exp_*`; each binary's module docs state the claim it measures), each a
//! **thin preset over
//! [`ba_exp::RunSpec`]**: the binary names its experiment cells; the
//! `ba-exp` harness owns the arg parsing (`--json PATH`, `--trials N`),
//! the parallel trial loop, the table printing, and the JSON emission.
//!
//! The declarative scenario runner (`--bin scenario`) executes
//! `scenarios/*.scn` specs by lowering them onto the same `RunSpec`
//! surface ([`ba_exp::scenario::lower`]).
//!
//! Criterion micro-benchmarks for the hot primitives live in
//! `benches/micro.rs`. The statistics/table helpers moved to `ba-exp`
//! and are re-exported here unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ba_exp::{f1, f3, loglog_slope, mean, par_trials, stddev, Table};
