//! Deterministic discrete-event simulation engine for TrioSim-RS.
//!
//! This crate is the Rust equivalent of the role the Akita Simulator Engine
//! plays in the original (Go) TrioSim: it owns *virtual time* and the
//! event queue a simulator's dispatch loop drains, which lets the rest of
//! the simulator fast-forward over uninteresting wall-clock detail by
//! jumping from event to event.
//!
//! The crate holds the engine's primitives, and nothing else:
//!
//! * [`VirtualTime`] / [`TimeSpan`] — integer (femtosecond) virtual
//!   time, so event ordering and accumulated durations are exact.
//! * [`EventQueue`] — a fully generic priority queue of `(time, event)`
//!   pairs with stable FIFO ordering for simultaneous events and lazy
//!   cancellation by [`EventId`]. A simulator defines one event `enum`
//!   and drives the loop itself; [`QueueStats`] counts what the queue
//!   did.
//! * [`RunBudget`] — the runaway guard a loop checks per event, with
//!   [`BudgetKind`] naming the axis that tripped and [`BudgetProgress`]
//!   the counted progress a checkpoint carries.
//! * [`fnv1a`] and [`merge_intervals`] — the content fingerprint and the
//!   interval union shared across the workspace.
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
mod fnv;
mod interval;
mod queue;
mod stats;
mod time;

pub use budget::{BudgetKind, BudgetProgress, RunBudget};
pub use fnv::{fnv1a, FNV_OFFSET};
pub use interval::merge_intervals;
pub use queue::{EventId, EventQueue};
pub use stats::QueueStats;
pub use time::{TimeSpan, VirtualTime};
