//! Deterministic discrete-event simulation engine for TrioSim-RS.
//!
//! This crate is the Rust equivalent of the role the Akita Simulator Engine
//! plays in the original (Go) TrioSim: it owns *virtual time*, an event
//! queue, and the dispatch loop, and lets the rest of the simulator
//! fast-forward over uninteresting wall-clock detail by jumping from event
//! to event.
//!
//! Two layers are provided:
//!
//! * [`EventQueue`] — a minimal, fully generic priority queue of
//!   `(time, event)` pairs with stable FIFO ordering for simultaneous
//!   events and O(log n) lazy cancellation. Most simulators built on this
//!   crate define one event `enum` and drive the loop themselves.
//! * [`Engine`] + [`Handler`] — an Akita-style dispatch layer where
//!   components register as handlers and events are routed by
//!   [`HandlerId`]. Useful when a simulation is composed of many loosely
//!   coupled components.
//!
//! # Determinism
//!
//! The engine is strictly deterministic: events scheduled for the same
//! virtual time are delivered in the order they were scheduled (a
//! monotonically increasing sequence number breaks ties). There is no
//! threading; given the same inputs, a simulation always produces the same
//! outputs. This mirrors the reproducibility requirement of the paper's
//! evaluation (every figure is regenerated from a seed).
//!
//! # Example
//!
//! ```rust
//! use triosim_des::{EventQueue, TimeSpan, VirtualTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut q = EventQueue::new();
//! q.schedule(VirtualTime::from_seconds(1.0), Ev::Pong);
//! q.schedule(VirtualTime::from_seconds(0.5), Ev::Ping);
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::Ping);
//! assert_eq!(t, VirtualTime::from_seconds(0.5));
//! assert_eq!(q.now(), t);
//!
//! // Relative scheduling uses the current virtual time.
//! q.schedule_in(TimeSpan::from_seconds(0.1), Ev::Ping);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The DES loop underpins the sweep engine's crash-safety contract:
// production code here must degrade through typed errors, never unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod budget;
mod engine;
mod queue;
mod stats;
mod ticker;
mod time;

pub use budget::{BudgetKind, BudgetProgress, RunBudget};
pub use engine::{Engine, EngineCtx, EngineError, Handler, HandlerId, HandlerStats};
pub use queue::{EventId, EventQueue};
pub use stats::QueueStats;
pub use ticker::{tick_while, Ticker};
pub use time::{TimeSpan, VirtualTime};
