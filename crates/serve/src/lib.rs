//! The `gopher serve` daemon: multi-session explanation serving over HTTP.
//!
//! The paper's serving story ([`gopher_core::ExplainSession`]) pays model
//! training and influence precomputation once and answers many explanation
//! queries against that state. This crate puts a network front on it without
//! pulling in a single external dependency:
//!
//! * [`http`] — hand-rolled HTTP/1.1 framing over `std::net` (keep-alive,
//!   `Content-Length` bodies, `Expect: 100-continue`, bounded heads and
//!   bodies);
//! * [`registry`] — named sessions built from CSV uploads or the built-in
//!   generators, LRU-bounded; every session is shared `Arc`-style so
//!   eviction never interrupts an in-flight query;
//! * [`api`] — the JSON wire codecs, shared with the `gopher query`
//!   subcommand so the HTTP surface and the CLI speak byte-identical
//!   request and response shapes;
//! * [`server`] — the accept loop, worker pool, routing, and graceful
//!   drain ([`Server::trigger_shutdown`] stops accepting, in-flight requests
//!   finish, [`Server::join`] returns when the last worker parks);
//! * [`client`] — a tiny blocking client used by the CLI smoke tests and
//!   the `serve_qps` load bench.
//!
//! Start at [`Server::start`] with a [`ServeConfig`].

pub mod api;
pub mod client;
pub mod http;
pub mod registry;
pub mod server;
pub mod signals;

pub use registry::{
    build_session, AnySession, SessionConfig, SessionRegistry, UpdateSpec, UPDATE_FIELDS,
};
pub use server::{ServeConfig, Server};
