//! # weakset-runtime
//!
//! The threaded backend of the weak-sets execution boundary, and its
//! recorder.
//!
//! Everything above the store protocol — `weakset-store`'s client,
//! `weakset`'s iterators, `weakset-gossip`'s anti-entropy rounds — runs
//! against the object-safe traits of [`traits`] instead of calling a
//! backend directly. They are `weakset-sim`'s, beside the types they
//! name, and re-exported here. Two backends implement them:
//!
//! * [`weakset_sim::world::World`] — the discrete-event simulator, in
//!   `weakset-sim` itself. It owns a virtual clock, delivers messages
//!   through a deterministic event queue, and hosts services inline on
//!   one thread: `&mut World<M>` coerces to `&mut dyn Runtime<M>`.
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
//! | concern   | sim backend (`weakset-sim`)  | threaded backend (this crate)   |
//! |-----------|------------------------------|---------------------------------|
//! | traits    | defined and implemented      | implemented, re-exported        |
//! | time      | event-queue virtual clock    | `Instant` since runtime start   |
//! | delivery  | ordered event queue          | per-node mpsc mailbox + thread  |
//! | timers    | scheduled events             | heap drained in `sleep`/`wait`  |
//! | services  | inline, a slot per node      | `Mutex` slot per node thread    |
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
pub mod threaded;
pub use weakset_sim::traits;

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
