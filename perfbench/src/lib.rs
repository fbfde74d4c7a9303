//! End-to-end lifecycle benchmark of the ε-PPI locator service.
//!
//! Every workload runs the same lifecycle — generate inputs, build epoch
//! 0 and open its durable store, commit a stream of deltas, serve
//! plaintext and private queries while deltas install, checkpoint, crash
//! with log records pending, recover and answer again — at its own
//! shape, with its own share of the run given to each phase
//! ([`shape::Shape`]). The program only ever sees the generated inputs;
//! every answer is checked against the benchmark's own copies.

pub mod inputs;
pub mod lifecycle;
pub mod shape;
pub mod spans;
pub mod stats;

pub use lifecycle::{run, Metric, Outcome, Plan};
pub use shape::Shape;
