//! Blocking workflows for entity resolution (paper §IV-B).
//!
//! A blocking workflow is a pipeline of up to four steps (paper Fig. 1):
//!
//! 1. **Block building** ([`build`]) — extract signatures from every entity
//!    and cluster entities with identical signatures into blocks,
//! 2. **Block Purging** ([`purge`], optional) — drop oversized,
//!    stop-word-like blocks,
//! 3. **Block Filtering** ([`filter`], optional) — keep every entity only in
//!    its `r%` smallest blocks,
//! 4. **Comparison cleaning** ([`propagation`] or [`metablocking`],
//!    mandatory) — discard redundant (and optionally superfluous) candidate
//!    pairs.
//!
//! [`workflow`] wires the steps into the five fine-tuned workflows of the
//! study (SBW, QBW, EQBW, SABW, ESABW), the two baselines (PBW, DBW) and
//! the Table III configuration grid.

pub mod blocks;
pub mod build;
pub mod filter;
pub mod metablocking;
pub mod propagation;
pub mod purge;
pub mod sorted_neighborhood;
pub mod store;
pub mod workflow;

pub use blocks::{Block, BlockCollection};
pub use build::BlockBuilder;
pub use er_core::optimize::GridResolution;
pub use filter::block_filtering;
pub use metablocking::{BlockingGraph, MetaBlocking, PruningAlgorithm, WeightingScheme};
pub use propagation::comparison_propagation;
pub use purge::block_purging;
pub use sorted_neighborhood::SortedNeighborhood;
pub use store::BlockingCodec;
pub use workflow::{BlockingWorkflow, ComparisonCleaning, WorkflowKind};

#[cfg(test)]
mod proptests;
