//! toss-serve — a fault-tolerant network front-end for the TOSS engine.
//!
//! This crate turns the in-process [`toss_core::Executor`] into a
//! long-running TCP service without pulling in an async runtime: a
//! thread-per-connection accept loop over `std::net`, a length-prefixed
//! JSON protocol, and the existing governance layer
//! ([`toss_core::AdmissionController`], [`toss_core::QueryGovernor`])
//! deciding who runs and who is shed.
//!
//! One request path: [`Service`] runs every query, the [`Server`] wraps
//! it in framing, connection limits and drain, and `toss-cli query`
//! calls it in-process. One way to open a store: [`open_store`]; one
//! checkpoint, which carries the store's ontology: [`checkpoint_store`].
//!
//! The robustness contract, end to end:
//!
//! - **Backpressure**: admission slots are bounded; a request that would
//!   queue past the configured wait is *rejected* with a typed
//!   `overloaded` error carrying a `retry_after_ms` hint — never an
//!   unbounded queue, never a dropped connection.
//! - **Deadlines**: every query runs under a [`BudgetClass`]
//!   with a hard deadline; connections have read/write deadlines so a
//!   slow-loris client is disconnected rather than pinning a thread.
//! - **Panic isolation**: a panicking query is caught by the executor's
//!   isolation layer and surfaced as a typed `internal` error frame; the
//!   connection (and server) live on.
//! - **Graceful drain**: [`Server::shutdown`] stops accepting,
//!   lets in-flight queries finish up to a drain deadline, then cancels
//!   stragglers through their [`toss_core::CancelToken`]s. Responses are
//!   single-write frames, so a drained client never observes a partial
//!   frame.
//!
//! [`Client`] is the matching client: one typed call per verb, and a
//! typed [`ClientError`] that keeps the server's [`ErrorCode`] and its
//! `retry_after_ms` hint. Every mutation frame carries a
//! client-generated idempotency key ([`next_write_key`]), so a write
//! resent under the same key is collapsed onto the original ack by the
//! server's dedupe table instead of applying twice.
//!
//! [`Server::start_writable`] enables the live write path:
//! mutation frames (`insert_doc`, `delete_doc`, `add_term`, `add_edge`,
//! `checkpoint`) flow through a single writer thread with group-commit
//! WAL batching — a write is acknowledged only after its batch's fsync
//! — plus background verified checkpoints, and read-only **degraded**
//! mode on persistent journal faults (typed `degraded` frames with a
//! retry hint; probe writes self-heal).

#![warn(unreachable_pub)]

mod budget;
mod client;
mod open;
pub mod protocol;
mod server;
mod service;
mod write;

pub use budget::BudgetClass;
pub use client::{
    next_write_key, Client, ClientError, QueryReply, StatsReply, WindowStats, WriteReply,
    WriteStats,
};
pub use open::{
    checkpoint_store, discard_damaged_sidecar, load_sidecar, open_store, recover_ontology,
    sidecar_path, store_ontology, OpenStore, StoreOntology,
};
pub use protocol::{ErrorCode, FrameError, QueryRequest, Request, WriteOp, WriteRequest};
pub use server::{DrainReport, Server, ServerConfig, ShutdownHandle};
pub use service::{Served, Service};
pub use write::{Enhancer, WriteConfig, WriteEngine};
