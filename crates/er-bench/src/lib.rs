//! The experiment harness of the reproduction.
//!
//! Every table and figure of the paper has a dedicated binary under
//! `src/bin/`; this library holds the shared machinery:
//!
//! * [`settings`] — CLI flags (`--scale`, `--grid`, `--datasets`, …,
//!   plus the fault-tolerance flags `--timeout`, `--budget`,
//!   `--checkpoint`, `--resume`, `--inject-faults`),
//! * [`harness`] — per-method configuration optimization (Problem 1) and
//!   the 17-method sweep behind Table VII,
//! * [`sweep`] — the fault-isolated, checkpointed and resumable sweep
//!   driver over all (dataset, schema-setting) columns,
//! * [`stream`] — the checkpointed streaming-ingest replay against the
//!   segmented incremental index (`er sweep --stream`),
//! * [`shard`] — the out-of-core streamed shard sweep
//!   (`er sweep --shards N`): 10M-row collections queried one
//!   deterministic shard at a time under a residency budget,
//! * [`checkpoint`] — the JSONL grid-checkpoint format,
//! * [`jsonl`] — the dependency-free JSON encoder/parser behind it,
//! * [`report`] — fixed-width text tables in the paper's format.

pub mod checkpoint;
pub mod harness;
pub mod jsonl;
pub mod report;
pub mod settings;
pub mod shard;
pub mod store;
pub mod stream;
pub mod sweep;
pub mod wire;

pub use harness::{run_all_methods, Context, MethodId, MethodOutcome};
pub use report::Table;
pub use settings::Settings;
pub use shard::{peak_rss_bytes, run_shard_sweep, ShardSweepOutcome};
pub use store::{all_codecs, open_store, open_store_read_only};
pub use stream::run_stream;
pub use sweep::{run_sweep, Column};
