//! Async micro-batching serving layer for the banked MCAM executor.
//!
//! The paper's pitch is throughput: one MCAM search step amortizes
//! across every row at once, and the compiled batch executor
//! (`femcam_core::exec`) amortizes plan traffic across every query in
//! a batch. An online front end, however, receives queries **one at a
//! time**. This crate closes that gap: [`McamServer`] owns a live
//! [`BankedMcam`] on a dedicated dispatcher thread, collects single
//! submissions into bounded micro-batches, executes one
//! [`BankedMcam::search_batch_winners_with`] call per batch, and fans
//! the winners back to the per-request waiters.
//!
//! # Serving
//!
//! **One request, one ticket.** Every front end — [`ServeHandle`],
//! [`ShardedHandle`], and the either-or [`ServingHandle`] — has the
//! same four search entry points: `submit`/`search` for the winner and
//! `submit_top_k`/`search_top_k` for the `k` nearest hits. Each takes
//! `impl Into<Request>`: a bare query word, or a [`Request`] that also
//! carries a per-request [`Metric`] ([`Request::metric`]) and a
//! deadline budget ([`Request::deadline`]). Every request takes one
//! admission path: validate the word, reject a zero budget, admit (on
//! a sharded front end: route and fan out), enqueue. The `submit*`
//! faces return a ticket generic over its answer — [`Ticket`],
//! [`ShardTicket`], or [`ServingTicket`] — whose default answer is the
//! `(global_row, total_conductance)` winner, and whose top-k form
//! ([`TopKTicket`], [`ShardTopKTicket`]) answers the hits, nearest
//! first.
//!
//! **Micro-batching window.** The dispatcher sleeps until a request
//! arrives. The first search (winner or top-k) opens a batch window,
//! and the dispatcher is *work-conserving*: it takes every search
//! already queued, without blocking, until the window holds
//! [`ServeConfig::max_batch`] queries or a barrier request (a store,
//! a report, shutdown) arrives — whichever comes first. It never
//! idles with work in hand: under the default
//! [`ServeConfig::max_wait`] of zero the window closes as soon as the
//! queue is empty. The window then executes: the collected winner
//! queries run as one [`BankedMcam::search_batch_winners_with`] sweep
//! and the collected top-k queries as one
//! [`BankedMcam::search_batch_top_k_with`] sweep (executed at the
//! largest requested `k` and truncated per request — bit-identical to
//! each request's solo answer, because a top-`k` list is a prefix of
//! the top-`k_max` list), and every waiter is answered. Batches form
//! from the requests that queued while the previous batch executed,
//! so under closed-loop load the achieved batch size approaches the
//! number of concurrent clients, while a lone request on an idle
//! server runs at once as a batch of one. A positive `max_wait` opts
//! into holding the window open: the dispatcher then blocks for more
//! searches until the window must close (see "Deadlines" below), and
//! once it is due still takes what is already queued, never blocking
//! past the close instant — an isolated request pays at most
//! `max_wait` of extra latency.
//!
//! **Deadlines.** A window must close `max_wait` after it opened
//! (at once under the default). A request built with
//! [`Request::deadline`] carries its own budget, and the window
//! instead closes at the *earliest* deadline among the
//! requests it holds, if that is sooner — a tight-budget request
//! never idles out a window on behalf of patient neighbors. A
//! deadline bounds how long a request may sit *unexecuted*: when the
//! dispatcher pops a request whose deadline already passed (it was
//! queued behind stores or full windows), the request is rejected
//! with [`ServeError::DeadlineExceeded`] instead of executing dead
//! work; a zero budget is rejected at submission. Once a request
//! makes it into a window, it executes with that window. The
//! dispatcher never re-arms its wait with a zero timeout — a due
//! window stops blocking and only takes what is already queued, so an
//! expired window can never busy-spin.
//!
//! **Backpressure policy.** Admission control is a queue-depth bound
//! checked at [`ServeHandle::submit`]: the depth counts searches that
//! are queued or executing, and the default capacity is
//! `workers × max_batch × 2`, where `workers` is the
//! work-proportional thread count `femcam_core::par::batch_threads`
//! resolves for one full batch. Because that worker count is exactly
//! what the executor will fork, queue depth maps 1:1 to utilization:
//! at capacity, every worker already has two full batches of backlog,
//! and admitting more work only grows latency without adding
//! throughput — so the request is rejected with
//! [`ServeError::Overloaded`] instead. Stores and reports bypass
//! admission control (writes must not be silently dropped); they are
//! rare and cheap relative to a batch.
//!
//! **Interleaved stores.** Writes travel through the same dispatcher
//! queue as searches, so the dispatcher thread is the *only* code that
//! ever touches the memory — plan-cache invalidation (a `store`
//! dirties one bank's cached plans) can never race a search. A store
//! acts as a batch barrier: searches queued before it execute first
//! (against the pre-store contents), the store applies, and searches
//! queued after it see the new row. From any single client's point of
//! view the memory is sequentially consistent: a search submitted
//! after a store completed observes that store.
//!
//! **Routed serving.** [`McamServer::start_routed`] serves a
//! [`RoutedMcam`] instead of a plain memory: the micro-batch window
//! still collects queries exactly as above, but execution groups the
//! window by routed bank subset and runs one *masked* batched sweep
//! per distinct subset ([`RoutedMcam::search_batch_winners_with`]), so
//! batching efficiency survives routing. Stores flow through
//! [`RoutedMcam::store`] on the dispatcher thread, which updates the
//! router's buckets in the same step as the memory — router state can
//! never race a search, exactly like plan-cache invalidation. Served
//! results are bit-identical to calling the routed index directly;
//! relative to a full sweep they are exact within each query's routed
//! banks (see `femcam_core::router`'s accuracy model).
//!
//! **Determinism contract.** Per-request results are **bit-identical**
//! to calling [`BankedMcam::search_batch_winners_with`] directly at the same
//! precision against the same contents — regardless of which
//! micro-batch a request lands in, how large that batch is, or how
//! many worker threads execute it. This is inherited from the
//! executor's fixed-order folds (`femcam_core::exec`'s "Determinism
//! guarantee") and pinned end-to-end, including under interleaved
//! stores, by this crate's `tests/determinism.rs` property test.
//!
//! **Memory budget.** [`ServeHandle::memory_report`] round-trips
//! through the dispatcher and returns the live
//! [`BankedMcam::plan_memory_bytes`] per-slot breakdown against the
//! configured [`ServeConfig::plan_budget_bytes`] — the number a
//! deployment watches to decide when a node is full (codes-mode plans
//! keep millions of rows resident where `f64` planes could not).
//!
//! # Sharding and deadlines
//!
//! One dispatcher serializes every request against one memory. The
//! paper's banked organization (Fig. 9: fixed-height banks searched in
//! parallel, winners merged digitally) extends past a single
//! dispatcher: [`ShardedServer`] partitions a [`BankedMcam`]'s banks
//! across `N` single-dispatcher shards
//! ([`BankedMcam::partition`]), each with its own queue, batching
//! window, and plan cache.
//!
//! * **Shard routing.** Searches (winner and top-k) fan out to every
//!   shard and merge by ascending `(conductance, global_row)` — the
//!   exact order the banked merge already pins, so sharded results are
//!   bit-identical to a single-dispatcher server and to a direct
//!   [`BankedMcam::search_batch_winners_with`] / [`BankedMcam::search_batch_top_k_with`]
//!   over the unpartitioned memory. Stores route *only* to the shard
//!   that owns the append tail (global rows are assigned densely, so
//!   exactly one shard ever grows).
//! * **Barrier scope.** A store is a batch barrier on its owning
//!   shard's queue alone: that shard's plan-cache invalidation stays
//!   race-free while every other shard keeps coalescing searches —
//!   the write never stalls the whole fleet.
//! * **Deadline semantics vs `max_wait`.** [`ServeConfig::max_wait`]
//!   is the *global* patience of a batching window — zero by default,
//!   so a window only ever takes what is already queued; a
//!   per-request deadline ([`Request::deadline`], the same on every
//!   front end) is one request's own budget. Under a positive `max_wait` the window stops blocking at
//!   the earliest pending deadline (never later than `max_wait`);
//!   either way, dead-on-arrival requests are rejected with
//!   [`ServeError::DeadlineExceeded`] instead of executing, and on a
//!   sharded front end the same deadline instant is fanned to every
//!   shard — if any shard cannot answer in time, the merged request
//!   reports `DeadlineExceeded` rather than a partial merge. Each
//!   shard runs the same work-conserving dispatcher, so an idle shard
//!   answers its copy of a fanned request at once.
//!
//! # Failure model
//!
//! The serving stack assumes parts of it **will** misbehave — the
//! paper's own pitch is accuracy *under device-level faults*
//! (variation-tolerant sensing, the §IV-D write-and-verify loop) —
//! and extends that stance to the software above the array. Three
//! guarantees, all exercised by the `chaos`-feature fault-injection
//! harness (`tests/chaos_props.rs`):
//!
//! * **No stranded waiter, ever.** Every submitted ticket resolves
//!   with a result or an error. The dispatcher wraps batch execution
//!   and store application in `catch_unwind`: a panic mid-batch
//!   answers every in-flight waiter with
//!   [`ServeError::DispatcherFailed`] (never a hang), keeps the owned
//!   memory, and restarts the loop in place. Dispatcher exit paths
//!   drain the queue; abandoned responders wake their waiters with
//!   [`ServeError::ShuttingDown`].
//! * **Self-healing, with a circuit breaker.** Each recovery
//!   increments the [`ServeStats::restarts`] counter. More than
//!   [`ServeConfig::restart_budget`] restarts within any
//!   [`ServeConfig::restart_window`] trips the breaker: the server
//!   transitions to a **terminal failed state**
//!   ([`ServeStats::failed`], [`ServeHandle::is_failed`]) instead of
//!   crash-looping — every subsequent request is rejected with
//!   `DispatcherFailed`, and [`McamServer::shutdown`] still recovers
//!   the memory. Results after a successful self-heal are
//!   bit-identical to direct search (the memory was never shared with
//!   the panicking batch).
//! * **Degraded coverage beats no answer.** A [`ShardedServer`]
//!   tracks per-shard health ([`ShardHealth`]): a shard whose
//!   dispatcher failed terminally (or whose channel closed) is
//!   **quarantined** — fan-out skips it — and a shard that misses the
//!   per-shard deadline ([`ServeConfig::shard_timeout`]) is marked
//!   degraded and loses its contribution to that merge. Merges
//!   complete over the surviving shards and carry a [`Coverage`]
//!   record (banks searched / banks intended, the exact contributing
//!   bank set) through [`ShardTicket::wait_covered`],
//!   [`ServingTicket::wait_covered`], and
//!   [`ServedNn::query_with_coverage`]. A degraded answer is the
//!   *exact* merge over `Coverage::banks` (checkable against
//!   [`BankedMcam::search_batch_winners_masked`]). The policy knob
//!   [`ServeConfig::degraded_policy`] picks fail-open (default:
//!   return the partial answer with its coverage) or fail-closed
//!   (reject with [`ServeError::Degraded`]). Routed searches whose
//!   banks all live on quarantined shards fall back to a full sweep
//!   of the surviving shards. A poisoned router lock degrades to full
//!   fan-out (a recall-safe superset) instead of panicking clients.
//! * **Quarantine is not a grave.** Shard health is a five-edge state
//!   machine:
//!
//!   ```text
//!   Healthy ──missed shard deadline──▶ Degraded
//!   Healthy | Degraded ──dispatcher gone──▶ Quarantined
//!   Quarantined ──probe supervisor wins CAS──▶ Probing
//!   Probing ──canary bit-identical──▶ Healthy
//!   Probing ──probe failed──▶ Quarantined
//!   ```
//!
//!   The first three edges are monotone escalations any client thread
//!   may publish (lock-free `fetch_max`; `Probing` is encoded above
//!   `Quarantined`, so a racing client can never stomp a resurrection
//!   in flight). The last three are guarded compare-and-swap
//!   transitions owned by exactly one prober at a time: the supervisor
//!   ([`ServeConfig::probe_interval`], or an explicit
//!   [`ShardedServer::try_readmit`]) reclaims the quarantined shard's
//!   banks via the dead server's fallible `shutdown()`, spawns a
//!   replacement dispatcher, and re-admits it **only** behind the
//!   canary rule: the replacement's answers to the probe suite —
//!   resident rows, near-miss perturbations of them, and top-k
//!   replays deep enough to straddle a bank boundary — must be
//!   bit-identical (`f64::to_bits` on every returned conductance) to
//!   a direct-sweep oracle computed on the reclaimed memory itself,
//!   failing closed on any shape mismatch. Any probe failure — injected fault, unrecoverable
//!   memory, canary mismatch, lost ownership — returns the shard to
//!   `Quarantined` for a later retry and counts in
//!   [`ServeStats::probe_failures`]. While a shard is quarantined its
//!   routed bank subsets are **re-placed** onto live shards (an overlay
//!   on the router, never a bucket rewrite), so routed traffic keeps
//!   its narrow fan-out instead of widening to a full sweep; a
//!   successful re-admit undoes the overlay exactly. Transition counts
//!   are monotone and observable: [`ShardedStats`] `degraded` /
//!   `quarantined` / `readmitted` / `probe_failures`.
//!
//! Error precedence: a malformed word reports its validation error
//! ([`CoreError::WordLengthMismatch`] / [`CoreError::LevelOutOfRange`])
//! whatever its budget, and a request whose own deadline has already
//! expired reports [`ServeError::DeadlineExceeded`] even when the
//! topology is simultaneously degraded — request-validity errors
//! outrank topology errors, so callers can tell "your budget was too
//! small" from "the fleet is sick".
//!
//! Error taxonomy: [`ServeError::Overloaded`] (admission),
//! [`ServeError::DeadlineExceeded`] (the request's own budget),
//! [`ServeError::ShuttingDown`] (orderly exit),
//! [`ServeError::DispatcherFailed`] (a crash was absorbed on the
//! request's behalf), [`ServeError::Degraded`] (partial coverage
//! under fail-closed policy), and [`ServeError::Core`] (the search
//! itself failed). Everything maps onto `femcam_core::CoreError` for
//! engine-trait callers.
//!
//! # Concurrency model
//!
//! Every lock in the serving stack is a [`femcam_core::sync`] wrapper
//! constructed with a **site name**; debug builds (and release builds
//! with the `lockorder` feature) record the acquisition-order graph
//! across sites and panic on the first cycle, naming both sites. The
//! lock hierarchy is deliberately flat:
//!
//! - `shard.slot` (a shard's `McamServer` slot, held across
//!   shutdown/respawn during a probe) may nest `shard.cell` (the
//!   topology's per-shard handle `RwLock`, written to publish the
//!   replacement) and `serve.oneshot` (canary replays wait on their
//!   tickets while the slot is held).
//! - Every other site — `serve.stats`, `serve.fault.rng`,
//!   `shard.router`, `core.plan_cache.*`, `serve.nn.last_coverage` —
//!   is a **leaf**: nothing else is acquired while it is held.
//!
//! Anything outside that order is a regression; the chaos and storm
//! suites assert zero cycle reports
//! ([`femcam_core::sync::cycle_report_count`]) after every scenario.
//!
//! Atomics carry narrow roles, each justified by an `// ORDERING:`
//! comment at the use site (enforced by the `femcam-lint` workspace
//! gate): the dispatcher-failed flag is the only acquire/release
//! pair a client decision rides on; restart, admission-depth, and
//! stats counters are relaxed, ordered — where a test or caller needs
//! ordering — by the one-shot ticket mutex they are read behind or by
//! a thread join. The restart counter is bumped **before** the failed
//! window's waiters are fulfilled, so any client observing
//! [`ServeError::DispatcherFailed`] already sees its restart counted.
//! The dispatcher's hot loop never reads the clock directly: window
//! timing goes through the `Window` helpers, and the `femcam-lint`
//! rule `instant_in_dispatch` keeps it that way.
//!
//! # Example
//!
//! ```
//! use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, Precision};
//! use femcam_device::FefetModel;
//! use femcam_serve::{McamServer, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ladder = LevelLadder::new(3)?;
//! let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
//! let mut memory = BankedMcam::new(ladder, lut, 4, 8);
//! for row in [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3]] {
//!     memory.store(&row)?;
//! }
//! let server = McamServer::start(memory, ServeConfig::default());
//! let handle = server.handle();
//! let (row, _conductance) = handle.search(&[1, 1, 2, 3])?;
//! assert_eq!(row, 2);
//! // Writes go through the same dispatcher; later searches see them.
//! let new_row = handle.store(&[4, 4, 4, 4])?;
//! assert_eq!(handle.search(&[4, 4, 4, 4])?.0, new_row);
//! let memory = server.shutdown()?; // returns the live memory
//! assert_eq!(memory.n_rows(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The serving stack's failure model forbids panicking on client or
// dispatcher threads: every `unwrap`/`expect` in library code needs an
// explicit, justified allow (CI runs clippy with `-D warnings`).
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

#[cfg(feature = "chaos")]
pub mod fault;
mod health;
mod nn;
mod shard;
mod stats;

pub use health::{Coverage, Covered, DegradedPolicy, ShardHealth};
pub use nn::ServedNn;
pub use shard::{
    ServingHandle, ServingTicket, ShardTicket, ShardTopKTicket, ShardedHandle, ShardedServer,
    ShardedStats,
};
pub use stats::ServeStats;

use std::error::Error;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, PoisonError};

use femcam_core::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use femcam_core::exec::validate_query;
use femcam_core::{
    par, BankedMcam, CoreError, Metric, PlanMemoryBytes, Precision, RoutedMcam, SearchSpec,
    N_METRICS,
};

use health::RestartBreaker;
use stats::StatsInner;

/// Configuration of a [`McamServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Upper bound on queries per executed micro-batch (default 64 —
    /// the regime where the compiled executor's batch amortization has
    /// saturated on the benchmark geometry).
    pub max_batch: usize,
    /// How long the dispatcher may hold an open batch window blocked
    /// waiting for more queries (default [`Duration::ZERO`]: never).
    /// Whatever the setting, a window also takes every search already
    /// queued when it opens or falls due, up to
    /// [`max_batch`](Self::max_batch), without blocking — so under
    /// load batches form from what queued during the previous
    /// execution, and an idle server answers a lone request at once.
    /// A positive value trades a lone request's latency for larger
    /// batches under light load. See the
    /// [module-level "Micro-batching window"](self#serving).
    pub max_wait: Duration,
    /// Execution precision of every served search (default
    /// [`Precision::F64`], bit-identical to the scalar physics path).
    pub precision: Precision,
    /// Admission-control capacity: the maximum number of searches
    /// queued or executing before [`ServeHandle::submit`] rejects.
    /// `None` (the default) derives it from the work-proportional
    /// worker count — see the
    /// [module-level "Backpressure policy"](self#serving).
    pub queue_capacity: Option<usize>,
    /// Optional resident-plan-memory budget in bytes; reported against
    /// the live [`BankedMcam::plan_memory_bytes`] by
    /// [`ServeHandle::memory_report`].
    pub plan_budget_bytes: Option<usize>,
    /// How many dispatcher self-heals (panic → recover → restart) are
    /// tolerated within [`restart_window`](Self::restart_window)
    /// before the circuit breaker trips the server into its terminal
    /// failed state (default 8). See the
    /// [module-level "Failure model"](self#failure-model).
    pub restart_budget: usize,
    /// Sliding window the restart budget applies over (default 1 s).
    pub restart_window: Duration,
    /// Per-shard merge deadline of a [`ShardedServer`]: a shard that
    /// has not answered a fanned request within this budget loses its
    /// contribution (the merge completes over the survivors, with the
    /// loss recorded in the result's [`Coverage`]). `None` (default)
    /// waits indefinitely. Ignored by a single-dispatcher server.
    pub shard_timeout: Option<Duration>,
    /// What a sharded merge does when coverage is incomplete: return
    /// the partial answer with its [`Coverage`] (fail-open, default)
    /// or reject with [`ServeError::Degraded`] (fail-closed).
    pub degraded_policy: DegradedPolicy,
    /// How often a [`ShardedServer`]'s probe supervisor sweeps for
    /// quarantined shards to resurrect (reclaim the dead dispatcher's
    /// memory, canary-validate a replacement, re-admit — see the
    /// [module-level "Failure model"](self#failure-model)). `None`
    /// (the default) spawns no supervisor thread; quarantined shards
    /// then return only through explicit
    /// [`ShardedServer::try_readmit`] /
    /// [`ShardedServer::readmit_quarantined`] calls. Ignored by a
    /// single-dispatcher server.
    pub probe_interval: Option<Duration>,
    /// Fault-injection schedule installed on server start (chaos
    /// testing only — see [`fault`]). `None` injects nothing.
    #[cfg(feature = "chaos")]
    pub faults: Option<fault::FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::ZERO,
            precision: Precision::F64,
            queue_capacity: None,
            plan_budget_bytes: None,
            restart_budget: 8,
            restart_window: Duration::from_secs(1),
            shard_timeout: None,
            degraded_policy: DegradedPolicy::FailOpen,
            probe_interval: None,
            #[cfg(feature = "chaos")]
            faults: None,
        }
    }
}

/// Queued-or-executing backlog (in full batches per worker) at which
/// admission control rejects: beyond this, added queue depth only adds
/// wait time, never throughput.
const QUEUE_SLACK_BATCHES: usize = 2;

/// Errors surfaced to serving clients.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control rejected the request: the queue already holds
    /// as much work as the executor can usefully absorb.
    Overloaded {
        /// Searches queued or executing at rejection time.
        depth: usize,
        /// The admission capacity in effect.
        capacity: usize,
    },
    /// The server is shutting down (or its dispatcher has exited); the
    /// request was not executed.
    ShuttingDown,
    /// The request's deadline passed before the dispatcher could
    /// execute it (it was dead on arrival at the dispatcher, or its
    /// budget was zero at submission); no search was run on its
    /// behalf.
    DeadlineExceeded {
        /// The budget the request was submitted with.
        budget: Duration,
        /// How long the request actually sat queued before rejection.
        waited: Duration,
    },
    /// The dispatcher panicked while this request was in flight (the
    /// panic was caught; the request was answered instead of
    /// stranded), or the restart circuit breaker has tripped and the
    /// server is in its terminal failed state. See the
    /// [module-level "Failure model"](self#failure-model).
    DispatcherFailed {
        /// The panic payload message, or the breaker-trip reason.
        detail: String,
    },
    /// A sharded merge completed with incomplete coverage (a shard was
    /// quarantined or timed out) and the server's
    /// [`DegradedPolicy::FailClosed`] policy refused the partial
    /// answer. Under the default fail-open policy this error is only
    /// produced when **no** shard answered at all.
    Degraded {
        /// Banks that contributed to the merge.
        searched: usize,
        /// Banks the request intended to search.
        total: usize,
    },
    /// The underlying search or store failed.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => write!(
                f,
                "serving queue at capacity ({depth} in flight, capacity {capacity})"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded { budget, waited } => write!(
                f,
                "deadline exceeded before execution (budget {budget:?}, waited {waited:?})"
            ),
            ServeError::DispatcherFailed { detail } => {
                write!(f, "serving dispatcher failed: {detail}")
            }
            ServeError::Degraded { searched, total } => {
                write!(f, "degraded coverage: searched {searched} of {total} banks")
            }
            ServeError::Core(e) => write!(f, "search failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Core(e) => e,
            ServeError::Overloaded { .. } => CoreError::Unavailable {
                reason: "serving queue at capacity",
            },
            ServeError::ShuttingDown => CoreError::Unavailable {
                reason: "server shutting down",
            },
            ServeError::DeadlineExceeded { .. } => CoreError::Unavailable {
                reason: "request deadline exceeded before execution",
            },
            ServeError::DispatcherFailed { .. } => CoreError::Unavailable {
                reason: "serving dispatcher failed",
            },
            ServeError::Degraded { searched, total } => CoreError::Degraded { searched, total },
        }
    }
}

/// Live snapshot of the served memory's resident compiled-plan bytes,
/// taken on the dispatcher thread (so it can never race a store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Rows currently stored.
    pub rows: usize,
    /// Banks currently allocated.
    pub banks: usize,
    /// Cells per stored word.
    pub word_len: usize,
    /// Resident bytes of the cached compiled plans, per precision slot.
    pub plan: PlanMemoryBytes,
    /// The configured budget ([`ServeConfig::plan_budget_bytes`]).
    pub budget_bytes: Option<usize>,
}

impl MemoryReport {
    /// Total resident plan bytes across all precision slots.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.plan.total()
    }

    /// `true` when a budget is configured and the resident plans
    /// exceed it — the node should stop absorbing rows (or switch to a
    /// cheaper precision mode).
    #[must_use]
    pub fn over_budget(&self) -> bool {
        self.budget_bytes
            .is_some_and(|budget| self.plan.total() > budget)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One-shot result slot a waiter blocks on.
#[derive(Debug)]
enum SlotState<T> {
    Pending,
    Done(Result<T, ServeError>),
    Abandoned,
}

#[derive(Debug)]
struct OneShot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

impl<T> OneShot<T> {
    fn wait(&self) -> Result<T, ServeError> {
        let mut st = lock(&self.state);
        loop {
            match std::mem::replace(&mut *st, SlotState::Pending) {
                SlotState::Done(r) => return r,
                SlotState::Abandoned => return Err(ServeError::ShuttingDown),
                SlotState::Pending => {
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// [`wait`](Self::wait) with an absolute give-up instant: `None`
    /// means the slot was still pending at `deadline` (the waiter
    /// abandons it — a later fulfillment lands in a slot nobody reads,
    /// which is harmless).
    fn wait_deadline(&self, deadline: Instant) -> Option<Result<T, ServeError>> {
        let mut st = lock(&self.state);
        loop {
            match std::mem::replace(&mut *st, SlotState::Pending) {
                SlotState::Done(r) => return Some(r),
                SlotState::Abandoned => return Some(Err(ServeError::ShuttingDown)),
                SlotState::Pending => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (guard, _timed_out) = self
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            }
        }
    }
}

/// The dispatcher-side half of a one-shot: fulfilling it wakes the
/// waiter; dropping it unfulfilled (dispatcher exit) wakes the waiter
/// with [`ServeError::ShuttingDown`] — a request can never strand its
/// client.
#[derive(Debug)]
struct Responder<T> {
    slot: Arc<OneShot<T>>,
    done: bool,
}

impl<T> Responder<T> {
    fn new() -> (Responder<T>, Arc<OneShot<T>>) {
        let slot = Arc::new(OneShot {
            state: Mutex::new("serve.oneshot", SlotState::Pending),
            cv: Condvar::new(),
        });
        (
            Responder {
                slot: Arc::clone(&slot),
                done: false,
            },
            slot,
        )
    }

    fn fulfill(mut self, result: Result<T, ServeError>) {
        {
            let mut st = lock(&self.slot.state);
            *st = SlotState::Done(result);
            self.slot.cv.notify_all();
        }
        self.done = true;
    }
}

impl<T> Drop for Responder<T> {
    fn drop(&mut self) {
        if !self.done {
            let mut st = lock(&self.slot.state);
            if matches!(*st, SlotState::Pending) {
                *st = SlotState::Abandoned;
                self.slot.cv.notify_all();
            }
        }
    }
}

/// One search request: the query word plus its per-request settings.
///
/// Every `submit*`/`search*` entry point of the serving handles takes
/// `impl Into<Request>`, so a bare word (`&[u8]`, `&Vec<u8>`,
/// `&[u8; N]`) is a request at the default [`Metric`] with no
/// deadline. The builders set the rest:
///
/// ```
/// # use std::time::Duration;
/// use femcam_core::Metric;
/// use femcam_serve::Request;
///
/// let word = vec![1u8, 1, 2, 3];
/// let request = Request::new(&word)
///     .metric(Metric::L1)
///     .deadline(Duration::from_millis(5));
/// # let _ = request;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Request<'q> {
    query: &'q [u8],
    metric: Metric,
    budget: Option<Duration>,
}

impl<'q> Request<'q> {
    /// A request for `query` at the default [`Metric`], with no
    /// deadline.
    #[must_use]
    pub fn new<Q: AsRef<[u8]> + ?Sized>(query: &'q Q) -> Self {
        Request {
            query: query.as_ref(),
            metric: Metric::default(),
            budget: None,
        }
    }

    /// Answers the request under `metric` semantics, whatever the rest
    /// of its micro-batch window asked for: the dispatcher groups each
    /// window by metric and runs one batched sweep per distinct
    /// metric. The server's precision still applies.
    #[must_use]
    pub fn metric(self, metric: Metric) -> Self {
        Request { metric, ..self }
    }

    /// Gives the request its own budget: it must start executing
    /// within `budget` of submission, or it is rejected with
    /// [`ServeError::DeadlineExceeded`] instead of running dead work.
    /// A zero budget is rejected at submission. A tight budget also
    /// closes the batching window early (see the
    /// [module-level "Deadlines"](crate#serving)).
    #[must_use]
    pub fn deadline(self, budget: Duration) -> Self {
        Request {
            budget: Some(budget),
            ..self
        }
    }

    /// The admission checks every front end runs first, in precedence
    /// order: validate the word, then reject a zero budget (counted in
    /// `deadline_rejected`). A malformed request therefore always
    /// reports its validation error, never `DeadlineExceeded`. Returns
    /// the request's absolute deadline; a budget too large to
    /// represent as an instant is no deadline at all.
    pub(crate) fn check(
        &self,
        word_len: usize,
        n_levels: usize,
        deadline_rejected: &AtomicU64,
    ) -> Result<Option<Instant>, ServeError> {
        validate_query(word_len, n_levels, self.query)?;
        match self.budget {
            Some(budget) if budget.is_zero() => {
                // ORDERING: Relaxed — monotone stats counter; readers
                // want a recent total, not an ordering edge.
                deadline_rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::DeadlineExceeded {
                    budget,
                    waited: Duration::ZERO,
                })
            }
            budget => Ok(budget.and_then(|b| Instant::now().checked_add(b))),
        }
    }
}

impl<'q, Q: AsRef<[u8]> + ?Sized> From<&'q Q> for Request<'q> {
    fn from(query: &'q Q) -> Self {
        Request::new(query)
    }
}

/// An in-flight search on a single-dispatcher server: wait on it to
/// receive the answer — the `(global_row, total_conductance)` winner
/// of a [`ServeHandle::submit`], or the hits of a
/// [`ServeHandle::submit_top_k`], nearest first ([`TopKTicket`]).
#[derive(Debug)]
pub struct Ticket<T = (usize, f64)> {
    slot: Arc<OneShot<T>>,
    /// Banks the served memory held at submission — a
    /// single-dispatcher answer always covers all of them.
    banks: usize,
}

/// An in-flight top-k search on a single-dispatcher server.
pub type TopKTicket = Ticket<Vec<(usize, f64)>>;

impl<T> Ticket<T> {
    /// Blocks until the dispatcher answers this request.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] if the search failed (e.g. the memory is
    ///   empty).
    /// * [`ServeError::DeadlineExceeded`] if the request's deadline
    ///   passed before the dispatcher reached it.
    /// * [`ServeError::ShuttingDown`] if the server exited before
    ///   answering.
    /// * [`ServeError::DispatcherFailed`] if the dispatcher panicked
    ///   with this request in flight (the panic was caught on its
    ///   behalf) or has failed terminally.
    pub fn wait(self) -> Result<T, ServeError> {
        self.slot.wait()
    }

    /// [`wait`](Self::wait), with the result's [`Coverage`] record. A
    /// single-dispatcher answer is always full coverage (there is one
    /// memory; it either answers over all of its banks or errors).
    ///
    /// # Errors
    ///
    /// Same conditions as [`wait`](Self::wait).
    pub fn wait_covered(self) -> Result<Covered<T>, ServeError> {
        let coverage = Coverage::full((0..self.banks).collect());
        self.slot.wait().map(|value| Covered { value, coverage })
    }

    /// [`wait`](Self::wait) with an absolute give-up instant; `None`
    /// abandons the ticket still unanswered.
    pub(crate) fn wait_deadline(self, deadline: Instant) -> Option<Result<T, ServeError>> {
        self.slot.wait_deadline(deadline)
    }

    /// Banks the served memory held at submission.
    pub(crate) fn banks_count(&self) -> usize {
        self.banks
    }
}

/// Where a queued search's answer goes: the winner, or the `k`
/// nearest hits.
enum Reply {
    Top1(Responder<(usize, f64)>),
    TopK(usize, Responder<Vec<(usize, f64)>>),
}

impl Reply {
    /// Answers the request with `e`, whichever answer it expected.
    fn fail(self, e: ServeError) {
        match self {
            Reply::Top1(r) => r.fulfill(Err(e)),
            Reply::TopK(_, r) => r.fulfill(Err(e)),
        }
    }
}

/// A queued search (one entry of a batching window).
struct PendingSearch {
    query: Vec<u8>,
    metric: Metric,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Reply,
}

/// What travels through the dispatcher queue.
enum Msg {
    Search(PendingSearch),
    Store {
        word: Vec<u8>,
        responder: Responder<usize>,
    },
    Report {
        responder: Responder<MemoryReport>,
    },
    Shutdown,
}

#[derive(Debug)]
struct Shared {
    /// Searches queued or executing (admission-control state).
    depth: AtomicUsize,
    capacity: usize,
    word_len: usize,
    n_levels: usize,
    /// Submissions rejected by admission control. Atomic (not under
    /// `stats`) so a rejection storm — the moment the dispatcher is
    /// busiest — never contends the mutex its hot loop takes.
    rejected: AtomicU64,
    /// Requests rejected because their deadline passed unexecuted.
    deadline_rejected: AtomicU64,
    stats: Mutex<StatsInner>,
    started: Instant,
    /// Banks the served memory currently holds (maintained by the
    /// dispatcher after each store) — the denominator of full
    /// [`Coverage`] records.
    n_banks: AtomicUsize,
    /// Dispatcher self-heals so far (caught panic → restart).
    restarts: AtomicU64,
    /// Terminal failed state: the restart circuit breaker tripped.
    failed: AtomicBool,
    /// Installed fault-injection schedule (chaos testing).
    #[cfg(feature = "chaos")]
    faults: Option<fault::FaultPlan>,
}

/// Cloneable client handle to a running [`McamServer`].
#[derive(Debug, Clone)]
pub struct ServeHandle {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Submits one search without blocking on its result; the returned
    /// [`Ticket`] waits for the `(global_row, total_conductance)`
    /// winner. `request` is a bare query word or a [`Request`] with a
    /// per-request [`Metric`] and deadline. The query is validated
    /// here, at admission time, so a malformed request is rejected
    /// synchronously and can never fail a micro-batch it would have
    /// shared with well-formed neighbors.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] with [`CoreError::WordLengthMismatch`] /
    ///   [`CoreError::LevelOutOfRange`] for malformed queries (exactly
    ///   as a direct search would report them), whatever the budget.
    /// * [`ServeError::DeadlineExceeded`] for a zero budget.
    /// * [`ServeError::Overloaded`] when the queue is at capacity.
    /// * [`ServeError::ShuttingDown`] when the server has exited, or
    ///   [`ServeError::DispatcherFailed`] when it failed terminally.
    pub fn submit<'q>(&self, request: impl Into<Request<'q>>) -> Result<Ticket, ServeError> {
        self.submit_as(request.into(), Reply::Top1)
    }

    /// Submits one top-k search without blocking on its result. Top-k
    /// traffic coalesces into the same micro-batch window as winner
    /// traffic (one [`BankedMcam::search_batch_top_k_with`] sweep per
    /// window and metric) and counts against admission control like a
    /// winner search. `k` is clamped, never an error: `k = 0` answers
    /// no hits, and a `k` past the row count answers every row.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn submit_top_k<'q>(
        &self,
        request: impl Into<Request<'q>>,
        k: usize,
    ) -> Result<TopKTicket, ServeError> {
        self.submit_as(request.into(), move |r| Reply::TopK(k, r))
    }

    /// [`submit`](Self::submit), blocking for the winner —
    /// bit-identical to [`BankedMcam::search_batch_winners_with`] at
    /// the server's precision and the request's metric, against the
    /// contents visible at execution time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit) and
    /// [`Ticket::wait`].
    pub fn search<'q>(&self, request: impl Into<Request<'q>>) -> Result<(usize, f64), ServeError> {
        self.submit(request)?.wait()
    }

    /// [`submit_top_k`](Self::submit_top_k), blocking for the hits,
    /// nearest first — bit-identical to
    /// [`BankedMcam::search_batch_top_k_with`] at the server's
    /// precision and the request's metric, against the contents
    /// visible at execution time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search`](Self::search).
    pub fn search_top_k<'q>(
        &self,
        request: impl Into<Request<'q>>,
        k: usize,
    ) -> Result<Vec<(usize, f64)>, ServeError> {
        self.submit_top_k(request, k)?.wait()
    }

    /// The one admission path: validate, reject a zero budget, take an
    /// admission slot, enqueue.
    fn submit_as<T>(
        &self,
        request: Request<'_>,
        reply: impl FnOnce(Responder<T>) -> Reply,
    ) -> Result<Ticket<T>, ServeError> {
        let deadline = request.check(
            self.shared.word_len,
            self.shared.n_levels,
            &self.shared.deadline_rejected,
        )?;
        self.admit()?;
        self.enqueue(&request, deadline, reply)
    }

    /// The error a request gets when the dispatcher is gone: terminal
    /// failure (breaker tripped) outranks orderly shutdown.
    pub(crate) fn exit_error(&self) -> ServeError {
        exit_error(&self.shared)
    }

    /// Enqueues a checked search whose admission slot the caller
    /// already holds (a failed send releases it); `reply` wraps the
    /// responder into the answer kind the ticket waits for.
    pub(crate) fn enqueue<T>(
        &self,
        request: &Request<'_>,
        deadline: Option<Instant>,
        reply: impl FnOnce(Responder<T>) -> Reply,
    ) -> Result<Ticket<T>, ServeError> {
        let (responder, slot) = Responder::new();
        let msg = Msg::Search(PendingSearch {
            query: request.query.to_vec(),
            metric: request.metric,
            submitted: Instant::now(),
            deadline,
            reply: reply(responder),
        });
        // ORDERING: Relaxed — advisory bank count for the ticket's
        // coverage record; the dispatcher's answer (ordered by the
        // channel + one-shot mutex) is authoritative.
        let banks = self.shared.n_banks.load(Ordering::Relaxed);
        if self.tx.send(msg).is_err() {
            self.release_slot();
            return Err(self.exit_error());
        }
        Ok(Ticket { slot, banks })
    }

    /// Releases one admission slot reserved by
    /// [`admit`](Self::admit) without enqueueing a request (the
    /// sharded front end reserves across every shard before sending
    /// anywhere, and must roll back on a partial reservation).
    pub(crate) fn release_slot(&self) {
        // ORDERING: Relaxed — the admission gate is the `fetch_update`
        // in `admit`; the counter's atomicity alone bounds the queue,
        // no memory is published under a slot release.
        self.shared.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Admit-or-reject atomically: a check-then-increment would let
    /// concurrent submitters race past the capacity bound together.
    /// A terminally-failed server rejects everything with
    /// [`ServeError::DispatcherFailed`].
    pub(crate) fn admit(&self) -> Result<(), ServeError> {
        // ORDERING: Acquire pairs with the Release store in
        // `note_restart`: a client that observes the terminal flag
        // also observes the restart count that tripped it.
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(self.exit_error());
        }
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.shared.faults {
            // Forced overload at admission; other kinds are harmless
            // here (a client thread must never panic on injection).
            match plan.sample(fault::FaultSite::Admission) {
                Some(fault::FaultKind::Overload) => {
                    // ORDERING: Relaxed — stats counter + advisory
                    // depth snapshot for the error message.
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded {
                        depth: self.shared.depth.load(Ordering::Relaxed),
                        capacity: self.shared.capacity,
                    });
                }
                Some(fault::FaultKind::Delay(d)) => std::thread::sleep(d),
                Some(fault::FaultKind::Panic) | None => {}
            }
        }
        // ORDERING: Relaxed — the capacity bound needs only the RMW's
        // atomicity (concurrent admits serialize on the CAS loop); no
        // payload is published through `depth`.
        let admitted =
            self.shared
                .depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                    (depth < self.shared.capacity).then_some(depth + 1)
                });
        if let Err(depth) = admitted {
            // ORDERING: Relaxed — monotone stats counter.
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                depth,
                capacity: self.shared.capacity,
            });
        }
        Ok(())
    }

    /// Stores one word through the dispatcher and blocks until it is
    /// applied; returns the new global row index. Stores bypass
    /// admission control (a write must not be silently dropped) but
    /// share the dispatcher queue, which is what keeps plan-cache
    /// invalidation race-free and gives the barrier ordering described
    /// in the [module docs](self#serving).
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] for malformed words (validated here, like
    ///   queries).
    /// * [`ServeError::ShuttingDown`] when the server has exited, or
    ///   [`ServeError::DispatcherFailed`] when it failed terminally or
    ///   panicked while applying this store (an injected or real store
    ///   panic is caught *before* the word is applied — a failed store
    ///   never half-mutates the memory).
    pub fn store(&self, word: &[u8]) -> Result<usize, ServeError> {
        validate_query(self.shared.word_len, self.shared.n_levels, word)?;
        let (responder, slot) = Responder::new();
        self.tx
            .send(Msg::Store {
                word: word.to_vec(),
                responder,
            })
            .map_err(|_| self.exit_error())?;
        slot.wait()
    }

    /// Live plan-memory report, taken on the dispatcher thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] when the server has exited,
    /// [`ServeError::DispatcherFailed`] when it failed terminally.
    pub fn memory_report(&self) -> Result<MemoryReport, ServeError> {
        let (responder, slot) = Responder::new();
        self.tx
            .send(Msg::Report { responder })
            .map_err(|_| self.exit_error())?;
        slot.wait()
    }

    /// Snapshot of the serving statistics (wait percentiles, achieved
    /// batch size, throughput) since the server started.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        // Copy the raw counters under the lock, then compute the
        // percentile sort after releasing it — never stall the
        // dispatcher's per-batch stats update on a snapshot.
        let inner = lock(&self.shared.stats).clone();
        // ORDERING: Relaxed — a stats snapshot tolerates counters read
        // at slightly different instants; each is individually recent.
        stats::snapshot(
            &inner,
            self.shared.rejected.load(Ordering::Relaxed),
            self.shared.deadline_rejected.load(Ordering::Relaxed),
            self.shared.started.elapsed(),
            self.queue_depth(),
            self.queue_capacity(),
            self.restarts(),
            self.is_failed(),
        )
    }

    /// Searches currently queued or executing.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        // ORDERING: Relaxed — advisory snapshot; the admission bound
        // itself is enforced by the RMW in `admit`.
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// The admission-control capacity in effect.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Dispatcher self-heals (caught panic → restart) so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        // ORDERING: Relaxed — `note_restart` counts a batch's restart
        // before any of its waiters wake, and the waiter's one-shot
        // mutex hand-off orders that count before this load; the
        // counter itself needs no edge of its own.
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Banks the served memory holds right now (maintained by the
    /// dispatcher after every store) — what a sharded front end
    /// charges as lost coverage when this shard cannot answer.
    pub(crate) fn banks_snapshot(&self) -> usize {
        // ORDERING: Relaxed — see `enqueue`'s coverage note.
        self.shared.n_banks.load(Ordering::Relaxed)
    }

    /// `true` once the restart circuit breaker tripped: the server is
    /// terminally failed and rejects every request with
    /// [`ServeError::DispatcherFailed`] (the memory is still
    /// recoverable through [`McamServer::shutdown`]).
    #[must_use]
    pub fn is_failed(&self) -> bool {
        // ORDERING: Acquire pairs with `note_restart`'s Release store
        // — observing the trip also observes the final restart count.
        self.shared.failed.load(Ordering::Acquire)
    }
}

/// The dispatcher-owned memory: a plain full-sweep [`BankedMcam`], or
/// a [`RoutedMcam`] whose searches run the two-stage routed path (the
/// window groups by routed bank subset) and whose stores keep the
/// router's buckets in sync on the dispatcher thread.
#[derive(Debug)]
enum ServeMemory {
    Plain(BankedMcam),
    Routed(RoutedMcam),
}

impl ServeMemory {
    fn as_banked(&self) -> &BankedMcam {
        match self {
            ServeMemory::Plain(m) => m,
            ServeMemory::Routed(r) => r.memory(),
        }
    }

    fn into_banked(self) -> BankedMcam {
        match self {
            ServeMemory::Plain(m) => m,
            ServeMemory::Routed(r) => r.into_memory(),
        }
    }

    fn store(&mut self, word: &[u8]) -> femcam_core::Result<usize> {
        match self {
            ServeMemory::Plain(m) => m.store(word),
            ServeMemory::Routed(r) => r.store(word),
        }
    }

    fn search_batch_winners_with(
        &self,
        queries: &[&[u8]],
        spec: SearchSpec,
    ) -> femcam_core::Result<Vec<(usize, f64)>> {
        match self {
            ServeMemory::Plain(m) => m.search_batch_winners_with(queries, spec),
            ServeMemory::Routed(r) => r.search_batch_winners_with(queries, spec),
        }
    }

    fn search_batch_top_k_with(
        &self,
        queries: &[&[u8]],
        k: usize,
        spec: SearchSpec,
    ) -> femcam_core::Result<Vec<Vec<(usize, f64)>>> {
        match self {
            ServeMemory::Plain(m) => m.search_batch_top_k_with(queries, k, spec),
            ServeMemory::Routed(r) => r.search_batch_top_k_with(queries, k, spec),
        }
    }
}

/// A running micro-batching server: owns the dispatcher thread, which
/// owns the [`BankedMcam`]. See the [module docs](self) for the
/// serving model.
#[derive(Debug)]
pub struct McamServer {
    handle: ServeHandle,
    dispatcher: Option<JoinHandle<BankedMcam>>,
}

impl McamServer {
    /// Starts the dispatcher thread around `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero or the dispatcher thread
    /// cannot be spawned.
    #[must_use]
    pub fn start(memory: BankedMcam, config: ServeConfig) -> Self {
        Self::start_inner(ServeMemory::Plain(memory), config)
    }

    /// Starts the dispatcher thread around a routed index: searches run
    /// the two-stage routed path (the micro-batch window groups queries
    /// by routed bank subset), and stores update the router's buckets
    /// on the dispatcher thread — see the
    /// [module-level "Routed serving"](self#serving).
    ///
    /// # Panics
    ///
    /// Same conditions as [`start`](Self::start).
    #[must_use]
    pub fn start_routed(routed: RoutedMcam, config: ServeConfig) -> Self {
        Self::start_inner(ServeMemory::Routed(routed), config)
    }

    fn start_inner(memory: ServeMemory, config: ServeConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        let capacity = config
            .queue_capacity
            .unwrap_or_else(|| auto_capacity(memory.as_banked(), &config));
        let shared = Arc::new(Shared {
            depth: AtomicUsize::new(0),
            capacity: capacity.max(1),
            word_len: memory.as_banked().word_len(),
            n_levels: memory.as_banked().ladder().n_levels(),
            rejected: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            stats: Mutex::new("serve.stats", StatsInner::default()),
            started: Instant::now(),
            n_banks: AtomicUsize::new(memory.as_banked().n_banks()),
            restarts: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            #[cfg(feature = "chaos")]
            faults: config.faults.clone(),
        });
        let (tx, rx) = mpsc::channel();
        let dispatcher_shared = Arc::clone(&shared);
        let dispatcher_config = config.clone();
        // femcam::allow(no_panic): a documented startup panic, not a
        // runtime panic path — the server cannot exist without its
        // dispatcher thread.
        #[allow(clippy::expect_used)]
        let dispatcher = std::thread::Builder::new()
            .name("femcam-serve".into())
            .spawn(move || dispatch(memory, &rx, &dispatcher_shared, &dispatcher_config))
            .expect("spawn serving dispatcher");
        McamServer {
            handle: ServeHandle { tx, shared },
            dispatcher: Some(dispatcher),
        }
    }

    /// A cloneable client handle.
    #[must_use]
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Snapshot of the serving statistics.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }

    /// Live plan-memory report.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] when the dispatcher has exited.
    pub fn memory_report(&self) -> Result<MemoryReport, ServeError> {
        self.handle.memory_report()
    }

    /// Stops the dispatcher (already-queued requests are answered with
    /// [`ServeError::ShuttingDown`]) and returns the live memory. A
    /// server whose restart breaker tripped (terminal `Failed` state)
    /// still exits cleanly here and hands back its recovered memory.
    ///
    /// # Errors
    ///
    /// [`ServeError::DispatcherFailed`] if the dispatcher thread died
    /// outside its supervised region (the memory is lost with it).
    pub fn shutdown(mut self) -> Result<BankedMcam, ServeError> {
        let _ = self.handle.tx.send(Msg::Shutdown);
        let Some(dispatcher) = self.dispatcher.take() else {
            return Err(ServeError::ShuttingDown);
        };
        dispatcher.join().map_err(|_| ServeError::DispatcherFailed {
            detail: "dispatcher thread died outside supervision".into(),
        })
    }
}

impl Drop for McamServer {
    fn drop(&mut self) {
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = self.handle.tx.send(Msg::Shutdown);
            let _ = dispatcher.join();
        }
    }
}

/// The default admission capacity: enough queue depth to keep every
/// earned worker [`QUEUE_SLACK_BATCHES`] full batches deep, and never
/// below one full batch. `par::batch_threads` is work-proportional, so
/// this is the depth at which the executor is saturated — see the
/// [module-level "Backpressure policy"](self#serving).
fn auto_capacity(memory: &BankedMcam, config: &ServeConfig) -> usize {
    let per_query_work = memory
        .n_rows()
        .max(memory.rows_per_bank())
        .saturating_mul(memory.word_len())
        .max(1);
    let workers = par::batch_threads(config.max_batch, per_query_work, par::max_threads());
    workers
        .saturating_mul(config.max_batch)
        .saturating_mul(QUEUE_SLACK_BATCHES)
        .max(config.max_batch)
}

/// One open batching window: the searches (winner and top-k)
/// collected so far, the latest instant the window may stay open, and
/// the earliest per-request deadline among the collected searches.
///
/// The window helpers below are the only clock reads the dispatcher's
/// wait loop is allowed (the `femcam-lint` `instant-in-dispatch` rule
/// pins this): batching-delay policy lives here, not inline in
/// [`dispatch`].
struct Window {
    searches: Vec<PendingSearch>,
    max_batch: usize,
    /// `max_wait` past the instant the window opened: the window
    /// closes by then even if no request carries a deadline.
    closes_by: Instant,
    earliest_deadline: Option<Instant>,
}

impl Window {
    /// Opens a window: it admits at most `max_batch` requests and
    /// closes no later than `max_wait` from now.
    fn open(max_batch: usize, max_wait: Duration) -> Self {
        Window {
            searches: Vec::with_capacity(max_batch),
            max_batch,
            closes_by: Instant::now() + max_wait,
            earliest_deadline: None,
        }
    }

    /// Whether the dispatcher should keep collecting: the window holds
    /// a live search (an opener rejected as dead on arrival leaves
    /// nothing to batch with) and is not yet full.
    fn wants_more(&self) -> bool {
        !self.searches.is_empty() && self.searches.len() < self.max_batch
    }

    /// Adds a popped search to the window and returns `None`; any
    /// other message is a barrier that closes the window and is handed
    /// back. A search whose deadline passed while it sat queued is
    /// dead on arrival: it is rejected (its slot released) instead of
    /// joining the batch.
    fn take(&mut self, msg: Msg, shared: &Shared) -> Option<Msg> {
        let Msg::Search(search) = msg else {
            return Some(msg);
        };
        let now = Instant::now();
        match search.deadline {
            Some(d) if d <= now => {
                // ORDERING: Relaxed — slot release (atomicity only, see
                // `release_slot`) plus a monotone stats counter.
                shared.depth.fetch_sub(1, Ordering::Relaxed);
                shared.deadline_rejected.fetch_add(1, Ordering::Relaxed);
                search.reply.fail(ServeError::DeadlineExceeded {
                    budget: d.saturating_duration_since(search.submitted),
                    waited: now.saturating_duration_since(search.submitted),
                });
            }
            Some(d) => {
                self.earliest_deadline = Some(self.earliest_deadline.map_or(d, |e| e.min(d)));
                self.searches.push(search);
            }
            None => self.searches.push(search),
        }
        None
    }

    /// The instant this window must close: `max_wait` after it opened,
    /// or the earliest pending per-request deadline, whichever is
    /// sooner.
    fn close_at(&self) -> Instant {
        match self.earliest_deadline {
            Some(d) => d.min(self.closes_by),
            None => self.closes_by,
        }
    }

    /// Time the dispatcher may still wait for this window to fill —
    /// [`window_timeout`] against the current clock. `None` means the
    /// window is due: execute the batch, never re-arm the wait.
    fn timeout(&self) -> Option<Duration> {
        window_timeout(self.close_at(), Instant::now())
    }
}

/// Time remaining until the batch window must close, or `None` when
/// the close instant has already arrived. The dispatcher breaks out of
/// its wait loop on `None` and executes the batch — it must **never**
/// re-arm `recv_timeout` with a zero timeout, which would spin the
/// wait loop at full CPU until some request happened to land.
fn window_timeout(close_at: Instant, now: Instant) -> Option<Duration> {
    let remaining = close_at.saturating_duration_since(now);
    (!remaining.is_zero()).then_some(remaining)
}

/// The dispatcher loop: the only code that touches `memory` while the
/// server runs. Returns the memory on shutdown.
///
/// Batch execution and the store path run under `catch_unwind`
/// supervision: a panic mid-batch is converted into
/// [`ServeError::DispatcherFailed`] for every in-flight waiter and the
/// loop restarts in place with the memory it still owns. Restarts are
/// rate-limited by a [`RestartBreaker`]; exhausting the budget
/// transitions the server to a terminal `Failed` state (new and queued
/// requests are answered with the failure) instead of crash-looping.
fn dispatch(
    mut memory: ServeMemory,
    rx: &Receiver<Msg>,
    shared: &Shared,
    config: &ServeConfig,
) -> BankedMcam {
    let mut breaker = RestartBreaker::new(config.restart_budget, config.restart_window);
    let mut leftover: Option<Msg> = None;
    'serve: loop {
        let Ok(first) = rx.recv() else {
            break 'serve; // every handle dropped
        };
        // A window may close because a non-search message arrived; that
        // message is handled right after the batch it interrupted.
        let mut pending = Some(first);
        while let Some(msg) = pending.take() {
            match msg {
                Msg::Shutdown => break 'serve,
                Msg::Report { responder } => {
                    responder.fulfill(Ok(report(memory.as_banked(), config)));
                }
                Msg::Store { word, responder } => {
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "chaos")]
                        inject(shared, fault::FaultSite::Store);
                        memory.store(&word).map_err(ServeError::Core)
                    }));
                    match outcome {
                        Ok(result) => {
                            // ORDERING: Relaxed — advisory coverage
                            // denominator (see `enqueue`); the store's
                            // result itself travels through the
                            // one-shot.
                            shared
                                .n_banks
                                .store(memory.as_banked().n_banks(), Ordering::Relaxed);
                            responder.fulfill(result);
                            lock(&shared.stats).stores += 1;
                        }
                        Err(payload) => {
                            // Count the restart (and possibly trip the
                            // breaker) before waking the waiter: a
                            // client observing the failure must find
                            // the restart already on the books.
                            let tripped = note_restart(shared, &mut breaker);
                            responder.fulfill(Err(ServeError::DispatcherFailed {
                                detail: panic_detail(payload.as_ref()),
                            }));
                            if tripped {
                                break 'serve;
                            }
                        }
                    }
                }
                opener @ Msg::Search(_) => {
                    let mut window = Window::open(config.max_batch, config.max_wait);
                    pending = window.take(opener, shared);
                    // While the window is open, block for more searches.
                    // A store/report/shutdown closes the window (barrier
                    // ordering) and runs after this batch.
                    while pending.is_none() && window.wants_more() {
                        let Some(timeout) = window.timeout() else {
                            break; // window due: never re-arm a zero wait
                        };
                        match rx.recv_timeout(timeout) {
                            Ok(msg) => pending = window.take(msg, shared),
                            Err(_) => break,
                        }
                    }
                    // Once it is due, take what is already queued without
                    // blocking: work-conserving, with no clock read.
                    while pending.is_none() && window.wants_more() {
                        let Ok(msg) = rx.try_recv() else { break };
                        pending = window.take(msg, shared);
                    }
                    if let Err(BatchPanic { tripped }) =
                        execute_window(&memory, window, shared, config.precision, &mut breaker)
                    {
                        if tripped {
                            // Carry the interrupting message into the
                            // drain, so the breaker trip answers it
                            // too.
                            leftover = pending.take();
                            break 'serve;
                        }
                    }
                }
            }
        }
    }
    // Drain: answer anything still queued so no client blocks forever.
    // An orderly exit answers with `ShuttingDown`, a breaker-tripped
    // (terminal `Failed`) one with `DispatcherFailed`.
    for msg in leftover.into_iter().chain(rx.try_iter()) {
        answer_exit(msg, shared);
    }
    memory.into_banked()
}

/// The error a dispatcher that is no longer serving hands out:
/// [`ServeError::DispatcherFailed`] in the terminal `Failed` state,
/// [`ServeError::ShuttingDown`] on an orderly exit.
fn exit_error(shared: &Shared) -> ServeError {
    // ORDERING: Acquire — same pairing as `is_failed`.
    if shared.failed.load(Ordering::Acquire) {
        ServeError::DispatcherFailed {
            detail: "restart budget exhausted; server is in terminal failed state".into(),
        }
    } else {
        ServeError::ShuttingDown
    }
}

/// Answers one drained message with the dispatcher's exit error.
fn answer_exit(msg: Msg, shared: &Shared) {
    match msg {
        Msg::Search(search) => {
            // ORDERING: Relaxed — slot release; see `release_slot`.
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            search.reply.fail(exit_error(shared));
        }
        Msg::Store { responder, .. } => responder.fulfill(Err(exit_error(shared))),
        Msg::Report { responder } => responder.fulfill(Err(exit_error(shared))),
        Msg::Shutdown => {}
    }
}

/// Records one supervised dispatcher restart; returns `true` when the
/// restart-rate budget is exhausted and the server must transition to
/// its terminal `Failed` state instead of restarting again.
fn note_restart(shared: &Shared, breaker: &mut RestartBreaker) -> bool {
    // ORDERING: Relaxed — the count is published to waiters by the
    // one-shot mutex hand-off that wakes them (fulfill happens after
    // this call), not by the counter itself.
    shared.restarts.fetch_add(1, Ordering::Relaxed);
    if breaker.record(Instant::now()) {
        // ORDERING: Release pairs with the Acquire loads in `admit`,
        // `is_failed`, and `exit_error`: observing the terminal flag
        // also observes the restart count incremented above.
        shared.failed.store(true, Ordering::Release);
        true
    } else {
        false
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "dispatcher panicked with a non-string payload".to_string()
    }
}

/// Samples the installed [`fault::FaultPlan`] at `site` and executes
/// whatever fault it injects (panic/delay) on the calling thread.
#[cfg(feature = "chaos")]
fn inject(shared: &Shared, site: fault::FaultSite) {
    if let Some(plan) = &shared.faults {
        if let Some(kind) = plan.sample(site) {
            fault::trigger_dispatcher_fault(kind);
        }
    }
}

/// Outcome of a batch that panicked under `catch_unwind` supervision:
/// whether the restart it counted tripped the breaker into the
/// terminal `Failed` state.
struct BatchPanic {
    tripped: bool,
}

/// Winner searches of one metric group: queries and their responders,
/// in arrival order.
type WinnerGroup = Vec<(Vec<u8>, Responder<(usize, f64)>)>;
/// Top-k searches of one metric group: queries, requested `k`, and
/// responders, in arrival order.
type TopKGroup = Vec<(Vec<u8>, usize, Responder<Vec<(usize, f64)>>)>;

/// Executes one collected micro-batch and fans the results out. The
/// window is grouped by per-request [`Metric`] — a window is almost
/// always uniform, so the grouping degenerates to one group. Each
/// group's winner queries run as one batched-winners sweep and its
/// top-k queries as one batched top-k sweep at the group's largest
/// requested `k` (each request's answer truncated to its own `k`, a
/// prefix of the `k_max` list, so results stay bit-identical to solo
/// execution).
///
/// The sweeps run under `catch_unwind`: a panic counts the restart
/// against `breaker` (so the restart — and a tripped breaker's
/// terminal `failed` flag — is visible before any waiter wakes), then
/// answers every request in the window with
/// [`ServeError::DispatcherFailed`] (slots released, nobody stranded)
/// and returns the [`BatchPanic`]. The metric groups stay owned out
/// here — an unwind can never drop a live responder.
fn execute_window(
    memory: &ServeMemory,
    window: Window,
    shared: &Shared,
    precision: Precision,
    breaker: &mut RestartBreaker,
) -> Result<(), BatchPanic> {
    if window.searches.is_empty() {
        return Ok(());
    }
    let exec_start = Instant::now();
    let size = window.searches.len();
    let waits: Vec<Duration> = window
        .searches
        .iter()
        .map(|s| exec_start.saturating_duration_since(s.submitted))
        .collect();
    // Group by request metric and answer kind; arrival order is
    // preserved within each group, and a uniform window fills exactly
    // one slot.
    let mut winner_groups: [WinnerGroup; N_METRICS] = Default::default();
    let mut topk_groups: [TopKGroup; N_METRICS] = Default::default();
    for s in window.searches {
        match s.reply {
            Reply::Top1(r) => winner_groups[s.metric.index()].push((s.query, r)),
            Reply::TopK(k, r) => topk_groups[s.metric.index()].push((s.query, k, r)),
        }
    }
    let n_topk = topk_groups.iter().map(Vec::len).sum();
    type Sweep<T> = Option<femcam_core::Result<T>>;
    type TopKSweeps = [Sweep<Vec<Vec<(usize, f64)>>>; N_METRICS];
    let sweeps = std::panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "chaos")]
        inject(shared, fault::FaultSite::PreBatch);
        let mut winners: [Sweep<Vec<(usize, f64)>>; N_METRICS] = Default::default();
        for metric in Metric::ALL {
            let group = &winner_groups[metric.index()];
            if group.is_empty() {
                continue;
            }
            let queries: Vec<&[u8]> = group.iter().map(|(q, _)| q.as_slice()).collect();
            let spec = SearchSpec { precision, metric };
            winners[metric.index()] = Some(memory.search_batch_winners_with(&queries, spec));
        }
        let mut topk_hits: TopKSweeps = Default::default();
        for metric in Metric::ALL {
            let group = &topk_groups[metric.index()];
            if group.is_empty() {
                continue;
            }
            let k_max = group.iter().map(|&(_, k, _)| k).max().unwrap_or(0);
            let queries: Vec<&[u8]> = group.iter().map(|(q, _, _)| q.as_slice()).collect();
            let spec = SearchSpec { precision, metric };
            topk_hits[metric.index()] = Some(memory.search_batch_top_k_with(&queries, k_max, spec));
        }
        #[cfg(feature = "chaos")]
        inject(shared, fault::FaultSite::PostBatch);
        (winners, topk_hits)
    }));
    let (winners, topk_hits) = match sweeps {
        Ok(pair) => pair,
        Err(payload) => {
            let detail = panic_detail(payload.as_ref());
            // Restart accounting first: a waiter that observes its
            // `DispatcherFailed` and immediately reads `restarts()` or
            // `is_failed()` must see this batch already counted.
            let tripped = note_restart(shared, breaker);
            // ORDERING: Relaxed — batch slot release; see `release_slot`.
            shared.depth.fetch_sub(size, Ordering::Relaxed);
            let failed = || ServeError::DispatcherFailed {
                detail: detail.clone(),
            };
            for (_, r) in winner_groups.into_iter().flatten() {
                r.fulfill(Err(failed()));
            }
            for (_, _, r) in topk_groups.into_iter().flatten() {
                r.fulfill(Err(failed()));
            }
            return Err(BatchPanic { tripped });
        }
    };
    let exec_ns = exec_start.elapsed().as_nanos();
    {
        let mut stats = lock(&shared.stats);
        stats.record_batch(waits.into_iter(), size, n_topk, exec_ns);
    }
    // Release the admission slots *before* waking any waiter: a client
    // that resubmits the instant its result arrives must find its slot
    // free, or a full wave of closed-loop clients would be spuriously
    // rejected against a queue that is actually drained.
    // ORDERING: Relaxed — batch slot release; see `release_slot`.
    shared.depth.fetch_sub(size, Ordering::Relaxed);
    // Queries were validated at admission, so a sweep-level failure
    // (an empty memory) applies to every request in its group equally.
    for (group, sweep) in winner_groups.into_iter().zip(winners) {
        match sweep {
            Some(Ok(hits)) => {
                for ((_, r), winner) in group.into_iter().zip(hits) {
                    r.fulfill(Ok(winner));
                }
            }
            Some(Err(e)) => {
                for (_, r) in group {
                    r.fulfill(Err(ServeError::Core(e.clone())));
                }
            }
            None => {}
        }
    }
    for (group, sweep) in topk_groups.into_iter().zip(topk_hits) {
        match sweep {
            Some(Ok(per_query)) => {
                for ((_, k, r), mut hits) in group.into_iter().zip(per_query) {
                    hits.truncate(k);
                    r.fulfill(Ok(hits));
                }
            }
            Some(Err(e)) => {
                for (_, _, r) in group {
                    r.fulfill(Err(ServeError::Core(e.clone())));
                }
            }
            None => {}
        }
    }
    Ok(())
}

fn report(memory: &BankedMcam, config: &ServeConfig) -> MemoryReport {
    MemoryReport {
        rows: memory.n_rows(),
        banks: memory.n_banks(),
        word_len: memory.word_len(),
        plan: memory.plan_memory_bytes(),
        budget_bytes: config.plan_budget_bytes,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use femcam_core::{ConductanceLut, LevelLadder};
    use femcam_device::FefetModel;

    fn memory_with_rows(rows: &[[u8; 4]]) -> BankedMcam {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut memory = BankedMcam::new(ladder, lut, 4, 2);
        for row in rows {
            memory.store(row).unwrap();
        }
        memory
    }

    /// The direct (unserved) `f64` winner for one query.
    fn direct_winner(memory: &BankedMcam, query: &[u8]) -> (usize, f64) {
        memory
            .search_batch_winners_with(&[query], Precision::F64)
            .unwrap()[0]
    }

    /// The direct (unserved) `f64` top-k for one query.
    fn direct_top_k(memory: &BankedMcam, query: &[u8], k: usize) -> Vec<(usize, f64)> {
        memory
            .search_batch_top_k_with(&[query], k, Precision::F64)
            .unwrap()
            .remove(0)
    }

    #[test]
    fn served_search_matches_direct_search() {
        let rows = [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]];
        let memory = memory_with_rows(&rows);
        let direct = memory_with_rows(&rows);
        let server = McamServer::start(memory, ServeConfig::default());
        let handle = server.handle();
        for q in [[0u8, 1, 2, 3], [4, 4, 4, 5], [1, 1, 2, 2]] {
            assert_eq!(handle.search(&q).unwrap(), direct_winner(&direct, &q));
        }
        let stats = server.stats();
        assert_eq!(stats.queries, 3);
        assert!(stats.batches >= 1);
        let _ = server.shutdown();
    }

    #[test]
    fn malformed_queries_rejected_at_admission() {
        let server = McamServer::start(memory_with_rows(&[[0u8, 0, 0, 0]]), ServeConfig::default());
        let handle = server.handle();
        assert!(matches!(
            handle.search(&[0, 0, 0]),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        assert!(matches!(
            handle.search(&[0, 0, 0, 9]),
            Err(ServeError::Core(CoreError::LevelOutOfRange { .. }))
        ));
        // A well-formed neighbor is unaffected.
        assert!(handle.search(&[0, 0, 0, 1]).is_ok());
    }

    #[test]
    fn empty_memory_serves_empty_array_errors() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let memory = BankedMcam::new(ladder, lut, 4, 2);
        let server = McamServer::start(memory, ServeConfig::default());
        assert!(matches!(
            server.handle().search(&[0, 0, 0, 0]),
            Err(ServeError::Core(CoreError::EmptyArray))
        ));
    }

    #[test]
    fn stores_are_visible_to_later_searches() {
        let memory = memory_with_rows(&[[0u8, 0, 0, 0]]);
        let server = McamServer::start(memory, ServeConfig::default());
        let handle = server.handle();
        let row = handle.store(&[5, 5, 5, 5]).unwrap();
        assert_eq!(row, 1);
        assert_eq!(handle.search(&[5, 5, 5, 5]).unwrap().0, row);
        let report = handle.memory_report().unwrap();
        assert_eq!(report.rows, 2);
        assert_eq!(report.word_len, 4);
        let memory = server.shutdown().unwrap();
        assert_eq!(memory.n_rows(), 2);
    }

    #[test]
    fn top_k_endpoint_clamps_k() {
        let memory = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3]]);
        let server = McamServer::start(memory, ServeConfig::default());
        let handle = server.handle();
        assert!(handle.search_top_k(&[1, 1, 2, 3], 0).unwrap().is_empty());
        assert_eq!(handle.search_top_k(&[1, 1, 2, 3], 2).unwrap().len(), 2);
        let all = handle.search_top_k(&[1, 1, 2, 3], 100).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].0, 2);
    }

    #[test]
    fn admission_control_rejects_at_capacity() {
        let memory = memory_with_rows(&[[0u8, 0, 0, 0], [1, 1, 1, 1]]);
        let config = ServeConfig {
            max_batch: 2,
            // A long window so submissions stay queued while we fill
            // the admission budget from this single thread.
            max_wait: Duration::from_millis(200),
            queue_capacity: Some(2),
            ..ServeConfig::default()
        };
        let server = McamServer::start(memory, config);
        let handle = server.handle();
        // Submit without waiting until the queue refuses.
        let mut tickets = Vec::new();
        let mut rejected = None;
        for _ in 0..16 {
            match handle.submit(&[1, 1, 1, 0]) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected {
            Some(ServeError::Overloaded { capacity, .. }) => assert_eq!(capacity, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(server.stats().rejected >= 1);
    }

    #[test]
    fn shutdown_answers_queued_requests() {
        let memory = memory_with_rows(&[[0u8, 0, 0, 0]]);
        let server = McamServer::start(
            memory,
            ServeConfig {
                max_wait: Duration::from_millis(100),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        let ticket = handle.submit(&[0, 0, 0, 1]).unwrap();
        let _ = server.shutdown();
        // The ticket either executed before shutdown or was drained.
        match ticket.wait() {
            Ok((row, _)) => assert_eq!(row, 0),
            Err(ServeError::ShuttingDown) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
        // Requests after shutdown fail cleanly.
        assert!(matches!(
            handle.search(&[0, 0, 0, 1]),
            Err(ServeError::ShuttingDown)
        ));
        assert!(matches!(
            handle.store(&[0, 0, 0, 1]),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn window_timeout_never_rearms_with_zero() {
        let now = Instant::now();
        // Window still open: the remaining time is returned.
        let t = window_timeout(now + Duration::from_millis(5), now).expect("open window");
        assert!(t <= Duration::from_millis(5) && !t.is_zero());
        // Window exactly due or overdue: close, never a zero re-wait
        // (a zero recv_timeout would spin the dispatcher at full CPU).
        assert_eq!(window_timeout(now, now), None);
        assert_eq!(window_timeout(now, now + Duration::from_millis(1)), None);
    }

    #[test]
    fn lone_request_on_idle_default_server_runs_as_batch_of_one() {
        let rows = [[0u8, 1, 2, 3], [7, 7, 7, 7]];
        let direct = memory_with_rows(&rows);
        let config = ServeConfig::default();
        assert_eq!(config.max_wait, Duration::ZERO);
        let server = McamServer::start(memory_with_rows(&rows), config);
        let handle = server.handle();
        // Each request is alone in the queue when it arrives: it runs
        // at once, as its own batch, with nothing to wait for.
        for (i, query) in [[0u8, 1, 2, 3], [7, 7, 6, 7]].iter().enumerate() {
            let got = handle.search(query).unwrap();
            let want = direct_winner(&direct, query);
            assert_eq!(got.0, want.0);
            assert_eq!(got.1.to_bits(), want.1.to_bits());
            let stats = server.stats();
            assert_eq!(stats.batches, i as u64 + 1);
            assert_eq!(stats.max_batch, 1);
        }
    }

    #[test]
    fn zero_budget_rejected_at_submission() {
        let server = McamServer::start(memory_with_rows(&[[0u8, 0, 0, 0]]), ServeConfig::default());
        let handle = server.handle();
        match handle.search(Request::new(&[0, 0, 0, 0]).deadline(Duration::ZERO)) {
            Err(ServeError::DeadlineExceeded { budget, waited }) => {
                assert_eq!(budget, Duration::ZERO);
                assert_eq!(waited, Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The top-k path shares the deadline contract.
        assert!(matches!(
            handle.submit_top_k(Request::new(&[0, 0, 0, 0]).deadline(Duration::ZERO), 2),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        assert_eq!(server.stats().deadline_rejected, 2);
        // A malformed query reports its validation error even with a
        // zero budget — validation outranks the deadline check, and
        // the deadline counter must not move.
        assert!(matches!(
            handle.submit(Request::new(&[0, 0, 0]).deadline(Duration::ZERO)),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        assert!(matches!(
            handle.submit_top_k(Request::new(&[0, 0, 0, 9]).deadline(Duration::ZERO), 2),
            Err(ServeError::Core(CoreError::LevelOutOfRange { .. }))
        ));
        assert_eq!(server.stats().deadline_rejected, 2);
        // A generous budget answers normally and matches the
        // deadline-free path bitwise.
        let with = handle
            .search(Request::new(&[0, 0, 0, 1]).deadline(Duration::from_secs(10)))
            .unwrap();
        let without = handle.search(&[0, 0, 0, 1]).unwrap();
        assert_eq!(with.0, without.0);
        assert_eq!(with.1.to_bits(), without.1.to_bits());
        assert_eq!(
            handle
                .submit_top_k(
                    Request::new(&[0, 0, 0, 1]).deadline(Duration::from_secs(10)),
                    1
                )
                .unwrap()
                .wait()
                .unwrap(),
            handle.search_top_k(&[0, 0, 0, 1], 1).unwrap()
        );
    }

    #[test]
    fn tight_deadline_closes_window_before_max_wait() {
        // A pathological 10 s window: without deadline-aware closing,
        // a solo request would idle the full window out.
        let server = McamServer::start(
            memory_with_rows(&[[0u8, 0, 0, 0], [1, 1, 1, 1]]),
            ServeConfig {
                max_wait: Duration::from_secs(10),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        let started = Instant::now();
        let (row, _) = handle
            .search(Request::new(&[1, 1, 1, 1]).deadline(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(row, 1);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline did not close the batching window early"
        );
    }

    #[test]
    fn dead_on_arrival_requests_are_rejected_not_executed() {
        // A 1 ns budget: by the time the dispatcher pops the search
        // off its queue (thread wakeups are microseconds), the
        // deadline has passed — the request must be rejected as dead
        // on arrival, not executed.
        let server = McamServer::start(memory_with_rows(&[[0u8, 0, 0, 0]]), ServeConfig::default());
        let handle = server.handle();
        let ticket = handle
            .submit(Request::new(&[0, 0, 0, 1]).deadline(Duration::from_nanos(1)))
            .unwrap();
        match ticket.wait() {
            Err(ServeError::DeadlineExceeded { waited, .. }) => {
                assert!(waited >= Duration::from_nanos(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(server.stats().deadline_rejected, 1);
        // The admission slot was released: the queue is drained.
        assert_eq!(handle.queue_depth(), 0);
    }

    #[test]
    fn top_k_traffic_coalesces_into_batches() {
        let memory = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]]);
        let direct = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]]);
        let server = McamServer::start(
            memory,
            ServeConfig {
                max_wait: Duration::from_millis(50),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        // A burst of mixed winner + top-k submissions with different
        // k, all in flight before any wait: the dispatcher coalesces
        // them into shared windows, and each answer is bit-identical
        // to the solo result.
        let queries = [[0u8, 1, 2, 3], [4, 4, 4, 5], [7, 7, 6, 7]];
        let winner_tickets: Vec<_> = queries.iter().map(|q| handle.submit(q).unwrap()).collect();
        let topk_tickets: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| handle.submit_top_k(q, i + 1).unwrap())
            .collect();
        for (q, t) in queries.iter().zip(winner_tickets) {
            let direct_hit = direct_winner(&direct, q);
            let got = t.wait().unwrap();
            assert_eq!(got.0, direct_hit.0);
            assert_eq!(got.1.to_bits(), direct_hit.1.to_bits());
        }
        for (i, (q, t)) in queries.iter().zip(topk_tickets).enumerate() {
            let want = direct_top_k(&direct, q, i + 1);
            assert_eq!(t.wait().unwrap(), want);
        }
        let stats = server.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.topk_queries, 3);
        // Coalescing happened: fewer windows than requests.
        assert!(
            stats.batches < 6,
            "expected coalesced windows, got {} batches",
            stats.batches
        );
    }

    #[test]
    fn memory_report_tracks_budget() {
        let memory = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7]]);
        let config = ServeConfig {
            precision: Precision::Codes,
            plan_budget_bytes: Some(1),
            ..ServeConfig::default()
        };
        let server = McamServer::start(memory, config);
        let handle = server.handle();
        handle.search(&[0, 1, 2, 3]).unwrap(); // warms the codes slot
        let report = handle.memory_report().unwrap();
        assert!(report.plan.codes > 0);
        assert!(report.resident_bytes() >= report.plan.codes);
        assert!(report.over_budget(), "1-byte budget must be exceeded");
    }
}
