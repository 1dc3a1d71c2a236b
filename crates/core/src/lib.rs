//! **PatLabor** — Pareto optimization of timing-driven routing trees.
//!
//! Reproduction of the DAC 2025 paper by Chen, Yao and Yin. Given a net
//! (source pin + sinks), PatLabor computes a *set* of routing trees on the
//! Pareto frontier of total wirelength `w(T)` and source→sink delay
//! `d(T)`, instead of the single parameterized compromise produced by
//! Prim–Dijkstra, SALT or YSD:
//!
//! * nets with degree `n ≤ λ` (default λ up to 9) are solved **exactly**
//!   through precomputed lookup tables ([`patlabor_lut`]) — every
//!   Pareto-optimal objective pair is returned with a witness tree;
//! * larger nets run the paper's **local search**: start from an RSMT,
//!   repeatedly pick the tree with the worst delay, select `λ − 1` pins
//!   with the learned scoring policy π, reroute them through the lookup
//!   table, and keep the Pareto set of everything seen
//!   ([`local_search`], [`policy`]);
//! * the theoretical divide-and-conquer approximation **Pareto-KS**
//!   (§IV-B) is provided for comparison ([`ks`]);
//! * the reinforcement-style **policy training** loop (§V-B) is
//!   reproducible via [`policy::train`].
//!
//! # Quickstart
//!
//! ```
//! use patlabor::{Engine, Net, Point, RouteSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::new(); // builds lookup tables for λ = 5
//! let net = Net::new(vec![
//!     Point::new(0, 0),    // source
//!     Point::new(19, 2),
//!     Point::new(8, 14),
//!     Point::new(4, 3),
//!     Point::new(13, 12),
//! ])?;
//! let outcome = engine.route(&net)?;
//! assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
//! for (cost, tree) in outcome.frontier.iter() {
//!     assert_eq!((cost.wirelength, cost.delay), tree.objectives());
//! }
//! # Ok(())
//! # }
//! ```

// The serving path must fail with structured `RouteError`s, never an
// `unwrap` panic; test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

mod batch;
pub mod cache;
pub mod eco;
mod engine;
mod pad;
pub mod ks;
pub mod local_search;
pub mod pipeline;
pub mod policy;
pub mod resilience;

pub use batch::{BatchStats, WorkerStats};
pub use eco::{DeltaJob, DeltaKind, EcoConfig, NetDelta};
pub use engine::{Engine, ReloadError, RouterConfig, Session};
pub use cache::{CacheConfig, CacheStats, ShardStats};
pub use pipeline::{
    RouteError, RouteOutcome, RouteProvenance, RouteResult, RouteSource, StageCounters,
};
pub use resilience::{
    net_key, Budget, Clock, DegradationTrace, Fault, FaultKind, FaultPlane, FaultScope,
    ResilienceConfig, ResilienceReport, Rung, RungAttempt, RungOutcome, SystemClock, VirtualClock,
};

// Re-export the vocabulary types so `patlabor` is usable on its own.
pub use patlabor_geom::{Net, Point};
pub use patlabor_lut::{LookupTable, LutBuilder};
pub use patlabor_pareto::{Cost, ParetoSet};
pub use patlabor_tree::RoutingTree;
