//! The repository's benchmark: four workloads across the Drift serving
//! stack (gateway, serve, router) and the paper simulator, driven from
//! outside through each crate's public API. See `README.md` beside
//! this package for the workloads, metrics and how to run them.

pub mod layers;
pub mod serving;
pub mod stats;
pub mod streams;
pub mod zoo;
