//! # cps-index
//!
//! Spatio-temporal indexes over atypical records.
//!
//! Proposition 1 of the paper: retrieving atypical events costs `O(N + n²)`
//! without an index and `O(N + n·log n)` with one. This crate supplies both
//! sides of that comparison:
//!
//! * [`NeighborSource`] — the query interface event extraction needs: *all
//!   records direct-atypical-related to record `i`* (Definition 1),
//! * [`StIndex`] — the indexed implementation: per-sensor window lists
//!   (binary searched over the `δt` horizon) crossed with the network's
//!   `δd` sensor neighbourhoods,
//! * [`NaiveNeighbors`] — the `O(n)`-per-seed full scan.
//!
//! The postings behind indexed cluster integration are private to
//! `atypical::integrate_index`, their only user.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod st_index;

pub use st_index::{NaiveNeighbors, NeighborSource, StIndex};
