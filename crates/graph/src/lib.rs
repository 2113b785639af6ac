//! # mhbc-graph
//!
//! Compact undirected graphs for the `mhbc` workspace.
//!
//! The paper (Chehreghani et al., EDBT 2019) assumes *undirected, connected,
//! loop-free graphs without multi-edges*, optionally weighted with positive
//! weights (§2). This crate provides:
//!
//! - [`CsrGraph`] — an immutable compressed-sparse-row adjacency structure,
//!   optionally carrying positive edge weights;
//! - [`GraphBuilder`] — a validating builder (rejects self-loops, out-of-range
//!   endpoints, inconsistent duplicate weights);
//! - [`generators`] — the synthetic families used by the evaluation harness
//!   (Erdős–Rényi, Barabási–Albert, Watts–Strogatz, grids, classic graphs,
//!   planted communities, and the balanced-separator family of Theorem 2);
//! - [`algo`] — traversals, connected components, and diameter estimation;
//! - [`reduce`] — preprocessing for the samplers: degree-1 pruning with
//!   exact betweenness corrections, twin collapsing into weighted
//!   super-vertices, and BFS relabelling for cache locality;
//! - [`io`] — whitespace-separated edge-list reading/writing.
//!
//! Vertices are dense `u32` indices in `0..n`. All random generators take a
//! caller-supplied [`rand::Rng`] so every experiment is reproducible from a
//! seed.
//!
//! ```
//! use mhbc_graph::{generators, GraphBuilder};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let g = generators::barabasi_albert(1000, 3, &mut rng);
//! assert_eq!(g.num_vertices(), 1000);
//! assert!(mhbc_graph::algo::is_connected(&g));
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1).unwrap();
//! b.add_edge(1, 2).unwrap();
//! let path = b.build().unwrap();
//! assert_eq!(path.degree(1), 2);
//! ```

pub mod algo;
mod bitset;
mod builder;
mod csr;
pub mod generators;
pub mod io;
pub mod reduce;
mod stats;

pub use bitset::VisitBitset;
pub use builder::GraphBuilder;
pub use csr::{CsrGraph, EdgeIter};
pub use stats::{degree_histogram, DegreeStats};

/// Dense vertex identifier. Graphs are limited to `u32::MAX - 1` vertices,
/// which comfortably covers laptop-scale experiments while halving adjacency
/// memory versus `usize` indices.
pub type Vertex = u32;

/// Errors produced when constructing or parsing graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    VertexOutOfRange { vertex: Vertex, num_vertices: usize },
    /// Self-loops are rejected (the paper assumes loop-free graphs).
    SelfLoop { vertex: Vertex },
    /// The same undirected edge was added twice with different weights.
    InconsistentDuplicate { u: Vertex, v: Vertex, w1: f64, w2: f64 },
    /// Weighted and unweighted `add_edge` calls were mixed on one builder.
    MixedWeightedness,
    /// Edge weights must be strictly positive and finite (§2.1).
    InvalidWeight { u: Vertex, v: Vertex, weight: f64 },
    /// More than `u32::MAX - 1` vertices were requested.
    TooManyVertices { requested: usize },
    /// The doubled edge-endpoint count `2m` would overflow the compact
    /// `u32` CSR offsets (see [`CsrGraph`]'s compact-index invariants).
    TooManyEdges { edges: usize },
    /// An edge list's ids are too sparse to index densely: `max_id + 1`
    /// exceeds `2·edges + 2^20`, so over a million vertex slots would be
    /// allocated that no edge touches.
    SparseIds { max_id: Vertex, edges: usize },
    /// An operation that requires a connected graph was given a disconnected one.
    Disconnected,
    /// Edge-list parsing failed.
    Parse { line: usize, message: String },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range for graph with {num_vertices} vertices")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            GraphError::InconsistentDuplicate { u, v, w1, w2 } => {
                write!(f, "edge ({u},{v}) added twice with different weights {w1} and {w2}")
            }
            GraphError::MixedWeightedness => {
                write!(f, "cannot mix weighted and unweighted edges in one builder")
            }
            GraphError::InvalidWeight { u, v, weight } => {
                write!(f, "edge ({u},{v}) has non-positive or non-finite weight {weight}")
            }
            GraphError::TooManyVertices { requested } => {
                write!(f, "{requested} vertices exceed the u32 vertex-id space")
            }
            GraphError::TooManyEdges { edges } => {
                write!(f, "{edges} edges exceed the compact u32 CSR offset space (2m > u32::MAX)")
            }
            GraphError::SparseIds { max_id, edges } => write!(
                f,
                "vertex id {max_id} is too sparse for {edges} edges: indexing it densely would \
                 allocate over a million unused vertices; relabel the ids to 0..n"
            ),
            GraphError::Disconnected => write!(f, "operation requires a connected graph"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}
