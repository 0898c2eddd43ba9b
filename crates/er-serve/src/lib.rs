//! Online candidate-lookup serving.
//!
//! The sweep (`er-bench`) is the build pipeline and the artifact store
//! (`er-store`) is the deployment unit; this crate is the read-only
//! consumer that keeps a prepared filter resident and answers
//! "query row → candidate matches" over a line-delimited JSON TCP
//! protocol. Robustness is the point:
//!
//! * **Zero prepare work at startup** — the engine opens the store
//!   read-only ([`er::store::OpenMode::ReadOnly`]) and loads the one
//!   artifact its filter needs through the artifact cache; the
//!   `store_hits` counter proves nothing was re-prepared, and a missing
//!   artifact is a structured startup error.
//! * **Per-request deadlines** — every lookup runs under
//!   [`er::core::guard`] with a [`er::core::guard::Deadline`] armed at
//!   admission, so queue wait counts against the budget and a timed-out
//!   query returns a structured error row instead of hanging a worker.
//! * **Bounded admission with backpressure** — a full queue sheds new
//!   requests immediately with a `retry_after_ms` response; memory stays
//!   bounded under any offered load.
//! * **Clients cannot wedge it** — request lines are capped at 1 MiB
//!   (longer: one `bad-request` row, connection closed), and a reply
//!   write to a client that stopped reading times out and closes the
//!   connection instead of blocking the worker.
//! * **Batched workers** — workers drain the queue in batches through the
//!   same deterministic parallel layer and per-row query paths the
//!   offline sweep uses, so a served answer is byte-identical to
//!   [`er::core::Filter::query`] on the same artifact.
//! * **Graceful drain** — SIGTERM stops the accept loop, finishes every
//!   queued request, flushes the stats line and exits 0.
//! * **Deterministic fault sites** — `serve/accept`, `serve/decode` and
//!   `serve/query/<row>` are wired into [`er::core::faults`], so the whole
//!   overload/drain story is testable with injected faults.

pub mod engine;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signals;

pub use engine::{Engine, ServeMethod, UpdateOp};
pub use protocol::Request;
pub use server::{ServeConfig, Server, ServerStats};
