//! Pareto lookup tables for small-degree nets (paper §V-A).
//!
//! The paper's key practical idea, borrowed from FLUTE: routing millions of
//! nets cannot afford an exponential DP per net, but the *set of
//! potentially Pareto-optimal topologies* of a net depends only on its
//! [`Pattern`](patlabor_geom::Pattern) — the rank order of its pin
//! coordinates plus the source position — and there are finitely many
//! patterns per degree. So for every canonical pattern of degree
//! `n ≤ λ` we precompute that topology set once with the symbolic
//! Pareto-DW ([`patlabor_dw::symbolic`]), and a query reduces to: pattern
//! lookup → evaluate the stored topologies against the net's actual gap
//! lengths → numeric Pareto prune. The result is the exact frontier, in
//! microseconds per net.
//!
//! * [`LutBuilder`] — parallel table generation (one symbolic DP per
//!   canonical pattern, Lemma 1 pruning via exact LP);
//! * [`LookupTable`] — the query path and [`LutStats`] (Table II);
//! * [`LookupTable::save`] / [`LookupTable::open_mmap`] — the v4 file
//!   format: tables are built once offline, then served zero-copy from a
//!   read-only mapping; [`TableInfo`] describes a file without serving it.
//!   A table is its v4 image whether it was built or opened: one reader
//!   checks every table, and `save` writes the bytes it checked.
//!
//! # Example
//!
//! ```
//! use patlabor_geom::{Net, Point};
//! use patlabor_lut::LutBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let table = LutBuilder::new(4).build(); // tables for degrees 2..=4
//! let net = Net::new(vec![Point::new(0, 0), Point::new(4, 2), Point::new(2, 4)])?;
//! let frontier = table.query(&net).expect("degree 3 ≤ λ");
//! assert_eq!(frontier.len(), 1); // degree-3 nets have one-point frontiers
//! # Ok(())
//! # }
//! ```

mod arena;
mod builder;
mod format;
mod mmap;
mod table;

pub use builder::LutBuilder;
pub use format::{fnv1a64_striped, ReadTableError, SectionInfo, TableInfo};
pub use table::{Backing, LookupTable, LutStats};

/// The λ values a table can be built for ([`LutBuilder::new`]) and a v4
/// file may declare ([`LookupTable::open_mmap`]).
pub const LAMBDAS: std::ops::RangeInclusive<u8> = 3..=9;

// The canonicalization the query path is keyed on; re-exported so callers
// holding only a table handle can name the classify result.
pub use patlabor_geom::NetClass;
