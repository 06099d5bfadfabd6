//! # weakset-runtime
//!
//! The execution-environment boundary for weak sets.
//!
//! Everything above the store protocol — `weakset-store`'s client,
//! `weakset`'s iterators, `weakset-gossip`'s anti-entropy rounds — runs
//! against the object-safe traits in this crate instead of calling the
//! simulator directly. Two backends implement them:
//!
//! * [`weakset_sim::world::World`] — the discrete-event simulator. It
//!   owns a virtual clock, delivers messages through a deterministic
//!   event queue, and hosts services inline on one thread. Every
//!   existing simulation, DST scenario, and bench keeps working
//!   unchanged: `&mut World<M>` coerces implicitly to
//!   `&mut dyn Runtime<M>`.
//! * [`threaded::ThreadedRuntime`] — real OS threads. Each node is a
//!   thread draining an in-process mpsc mailbox; the clock is wall time
//!   (`std::time::Instant`, reported in the same microsecond units as
//!   [`weakset_sim::time::SimTime`]); timers fire while the driving
//!   client sleeps or waits. Service handlers, read policies, figure
//!   semantics, and obs metrics are byte-for-byte the same code as on
//!   the simulator — that portability is checked by the cross-backend
//!   parity suite in the workspace root.
//!
//! ## Who owns what
//!
//! | concern   | sim backend                  | threaded backend                |
//! |-----------|------------------------------|---------------------------------|
//! | time      | event-queue virtual clock    | `Instant` since runtime start   |
//! | delivery  | ordered event queue          | per-node mpsc mailbox + thread  |
//! | timers    | scheduled events             | heap drained in `sleep`/`wait`  |
//! | services  | inline `HashMap` dispatch    | `Mutex` slot per node thread    |
//! | tracing   | world-owned span stack       | view-owned span stack           |
//! | requests  | one `Requests` table         | one `Requests` table per view   |
//!
//! A request's life cycle — its token, its account, its reply and the
//! task waiting on it — is `weakset_sim::requests::Requests`'s on both
//! backends, and [`Transport::rpc`] is written once: each backend only
//! delivers and waits.
//!
//! See DESIGN.md ("Execution backends") for the full diagram.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod record;
pub mod sim_impl;
pub mod threaded;
pub mod traits;

pub use record::{RecEntry, RecEvent, RecOutcome, Recorder, Recording};
pub use traits::{
    Clock, Launched, Observe, RtMessage, RtTask, Runtime, RuntimeExt, ServiceHost, Spawner, TaskFn,
    Transport, Wake,
};

/// One-stop imports: every boundary trait, so `world.now()` etc. resolve
/// on `&mut dyn Runtime<M>` receivers.
pub mod prelude {
    // `Recorder` stays out of the prelude: the spec crate's computation
    // recorder owns that name in glob-import contexts. Reach the
    // boundary recorder as `weakset_runtime::Recorder`.
    pub use crate::record::{RecEvent, RecOutcome, Recording};
    pub use crate::threaded::ThreadedRuntime;
    pub use crate::traits::{
        Clock, Observe, RtMessage, RtTask, Runtime, RuntimeExt, ServiceHost, Spawner, TaskFn,
        Transport, Wake,
    };
}
