//! Rooted rectilinear Steiner routing trees.
//!
//! Every routing algorithm in the workspace ultimately produces a
//! [`RoutingTree`]: a tree over plane points rooted at the net's source,
//! whose pins appear in net order (`node 0` = source) and whose remaining
//! nodes are Steiner points. Edges are abstract rectilinear connections of
//! length `‖a − b‖₁`; both paper objectives — wirelength `w(T)` and delay
//! `d(T)` — are path-length functionals, so no concrete L-shape embedding
//! is needed to evaluate them.
//!
//! The crate also provides:
//!
//! * [`extract_from_union`] — turning a (possibly overlapping, cyclic)
//!   union of edge sets, as produced by the Pareto-DW merge step, into a
//!   valid tree that is no worse in either objective;
//! * [`reconnect_pass`] / [`remove_redundant_steiner`] — the SALT-style
//!   post-processing passes (redundant-Steiner
//!   removal and greedy reconnection) used by both the SALT baseline and
//!   PatLabor's local search.
//!
//! # Example
//!
//! ```
//! use patlabor_geom::{Net, Point};
//! use patlabor_tree::RoutingTree;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Net::new(vec![Point::new(0, 0), Point::new(4, 0), Point::new(4, 3)])?;
//! // Chain source → sink1 → sink2.
//! let tree = RoutingTree::from_edges(
//!     &net,
//!     &[(Point::new(0, 0), Point::new(4, 0)), (Point::new(4, 0), Point::new(4, 3))],
//! )?;
//! assert_eq!(tree.wirelength(), 7);
//! assert_eq!(tree.delay(), 7);
//! # Ok(())
//! # }
//! ```

mod elmore;
mod extract;
mod refine;
mod routing_tree;
mod svg;

pub use elmore::{elmore_delays, max_elmore, ElmoreModel};
pub use svg::{render_trees_svg, SvgOptions};

pub use extract::{extract_from_ids, extract_from_union, ExtractTreeError};
pub use refine::{
    reconnect_pass, reconnect_pass_with, remove_redundant_steiner, ReconnectMoves,
    RefineObjective,
};
pub use routing_tree::{InvalidTreeError, RoutingTree};
