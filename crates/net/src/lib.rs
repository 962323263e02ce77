//! Async TCP front-end for the SEC cluster.
//!
//! Everything below the socket was already concurrent — retrieval is
//! `&self`, [`SecCluster`](sec_engine::SecCluster) routes `ObjectId`s across
//! shards with fallible addressing — but none of it was reachable over a
//! wire. This crate adds that last layer without any external dependency:
//!
//! * [`sys`] — a minimal reactor: `epoll` on Linux (raw FFI, no `libc`
//!   crate) with a portable `poll` fallback (`SEC_NET_REACTOR=poll`), plus a
//!   pipe-based cross-thread [`Waker`](sys::Waker) and an `RLIMIT_NOFILE`
//!   helper for many-connection benchmarks.
//! * [`proto`] — the RESP-like wire protocol: an incremental, zero-copy,
//!   panic-free frame parser that tolerates frames torn at any byte
//!   boundary, and the matching request/reply encoders.
//! * [`server`] — the event-loop server: one reactor per worker thread,
//!   shared accept with round-robin handoff, per-connection read/write
//!   buffers with high/low-water backpressure, per-connection pipelining
//!   (every frame of a readiness event is served through the one
//!   per-command path and the replies leave in a single `write`), and
//!   graceful shutdown that drains in-flight requests.
//! * [`client`] — a small blocking client speaking the same protocol, with
//!   explicit pipelining.
//! * [`load`] — a loopback load generator (closed-loop pipelining or
//!   open-loop Poisson arrivals via `sec-workload`) reporting sustained
//!   req/s and p50/p99 latency; the `sec-netload` bin is a thin wrapper
//!   over it.
//!
//! See `docs/NETWORK.md` for the wire grammar and the backpressure and
//! shutdown contracts.

#![deny(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod proto;
pub mod server;
pub mod sys;

pub use client::NetClient;
pub use load::{LoadConfig, LoadReport};
pub use proto::{Command, Parsed, ParsedReply, Reply};
pub use server::{Server, ServerConfig, ServerHandle};
