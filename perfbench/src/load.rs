//! The load generator: one submitter thread and one reaper thread.
//!
//! The submitter (the calling thread) submits requests and hands each
//! in-flight ticket to the reaper, which waits on tickets in
//! submission order and timestamps each answer. Stores are blocking
//! calls and run on the submitter. A closed loop keeps a fixed number
//! of searches in flight; an open loop sends on a fixed schedule and
//! times each request from when it was due, never keeping more than
//! [`OPEN_IN_FLIGHT`] searches in flight, so a stall of the box delays
//! requests (and shows in their latency) instead of overflowing the
//! server's admission queue.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use femcam_serve::{
    ServeError, ServeHandle, ShardTicket, ShardTopKTicket, ShardedHandle, Ticket, TopKTicket,
};

use crate::trace;

/// Answer of one search: `(global_row, conductance)` hits, nearest
/// first (one hit for a top-1 search).
pub type Hits = Vec<(usize, f64)>;

/// A serving front end the generator can drive.
pub trait Target: Sync {
    type Pending: Send;
    fn submit(&self, query: &[u8], k: usize) -> Result<Self::Pending, ServeError>;
    fn wait(pending: Self::Pending) -> Result<Hits, ServeError>;
    fn store(&self, word: &[u8]) -> Result<usize, ServeError>;
}

/// An in-flight top-1 or top-k ticket.
pub enum Pending<A, B> {
    Top1(A),
    TopK(B),
}

impl Target for ServeHandle {
    type Pending = Pending<Ticket, TopKTicket>;
    fn submit(&self, query: &[u8], k: usize) -> Result<Self::Pending, ServeError> {
        Ok(if k <= 1 {
            Pending::Top1(ServeHandle::submit(self, query)?)
        } else {
            Pending::TopK(self.submit_top_k(query, k)?)
        })
    }
    fn wait(pending: Self::Pending) -> Result<Hits, ServeError> {
        match pending {
            Pending::Top1(t) => t.wait().map(|hit| vec![hit]),
            Pending::TopK(t) => t.wait(),
        }
    }
    fn store(&self, word: &[u8]) -> Result<usize, ServeError> {
        ServeHandle::store(self, word)
    }
}

impl Target for ShardedHandle {
    type Pending = Pending<ShardTicket, ShardTopKTicket>;
    fn submit(&self, query: &[u8], k: usize) -> Result<Self::Pending, ServeError> {
        Ok(if k <= 1 {
            Pending::Top1(ShardedHandle::submit(self, query)?)
        } else {
            Pending::TopK(self.submit_top_k(query, k)?)
        })
    }
    fn wait(pending: Self::Pending) -> Result<Hits, ServeError> {
        match pending {
            Pending::Top1(t) => t.wait().map(|hit| vec![hit]),
            Pending::TopK(t) => t.wait(),
        }
    }
    fn store(&self, word: &[u8]) -> Result<usize, ServeError> {
        ShardedHandle::store(self, word)
    }
}

/// One request of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Search { query: usize, k: usize },
    Store { word: usize },
}

/// A seeded traffic mix over a query pool and a pool of fresh words:
/// request `seq` is a pure function of `(seed, seq)`.
#[derive(Debug, Clone)]
pub struct Mix {
    pub seed: u64,
    pub queries: Vec<Vec<u8>>,
    pub words: Vec<Vec<u8>>,
    /// Share of requests that are stores.
    pub store_share: f64,
    /// Share of searches that ask for top-`k`.
    pub topk_share: f64,
    pub k: usize,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl Mix {
    pub fn op(&self, seq: u64) -> Op {
        let h = mix64(self.seed ^ mix64(seq));
        if !self.words.is_empty() && unit(h) < self.store_share {
            return Op::Store {
                word: seq as usize % self.words.len(),
            };
        }
        let h2 = mix64(h);
        let k = if unit(h2) < self.topk_share {
            self.k
        } else {
            1
        };
        Op::Search {
            query: (mix64(h2) % self.queries.len() as u64) as usize,
            k,
        }
    }
}

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Keep this many searches in flight.
    Closed(usize),
    /// Send at this many requests per second.
    Open(f64),
}

/// What one phase observed. Latencies are in µs.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per answered search: from submission (closed) or from when it
    /// was due (open) until the reaper saw the answer.
    pub search_us: Vec<f64>,
    /// Per store, timed the same way.
    pub store_us: Vec<f64>,
    /// Open loop only: how late each request left the submitter.
    pub lag_us: Vec<f64>,
    /// Answered searches `(seq, query, k, hits)`, in submission order.
    pub searches: Vec<(u64, usize, usize, Hits)>,
    /// Applied stores `(seq, word, global_row)`, in submission order.
    pub stores: Vec<(u64, usize, usize)>,
    /// Searches answered.
    pub answered: usize,
    pub attempted: usize,
    /// Requests that returned an error (rejections included).
    pub failed: usize,
    /// From the first submission until the last answer.
    pub elapsed: Duration,
    pub backlog_mid: usize,
    pub backlog_end: usize,
    /// Open loop with a backlog cap: requests not sent because they came
    /// due while the cap was in flight.
    pub shed: usize,
    /// The first few errors, for the record.
    pub errors: Vec<String>,
}

/// Errors kept per phase for the record.
const KEPT_ERRORS: usize = 4;

fn keep(errors: &mut Vec<String>, e: &ServeError) {
    if errors.len() < KEPT_ERRORS {
        errors.push(e.to_string());
    }
}

impl Phase {
    /// Appends a later phase run on the same deployment.
    pub fn absorb(&mut self, later: Phase) {
        self.search_us.extend(later.search_us);
        self.store_us.extend(later.store_us);
        self.lag_us.extend(later.lag_us);
        self.searches.extend(later.searches);
        self.stores.extend(later.stores);
        self.answered += later.answered;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.elapsed += later.elapsed;
        self.shed += later.shed;
        self.errors.extend(later.errors);
    }

    /// Answered searches per second.
    pub fn search_rate(&self) -> f64 {
        self.answered as f64 / self.elapsed.as_secs_f64()
    }
}

/// Sleep until this close to a due time, then yield-spin: about the
/// kernel's default timer slack, so a sleep rarely wakes late and the
/// spin, which takes a core from the server, stays short.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Most searches an open loop keeps in flight: half the smallest
/// admission capacity of the served workloads (two full batches of 64
/// per dispatcher), so an open loop can never be rejected.
pub const OPEN_IN_FLIGHT: usize = 64;

fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_WINDOW {
        std::thread::sleep(due - now - SPIN_WINDOW);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

struct InFlight<P> {
    seq: u64,
    query: usize,
    k: usize,
    since: Instant,
    pending: P,
}

/// Runs one phase against `target`, drawing requests `*next_seq..`
/// from `mix`. An open phase with `backlog_cap` sheds every request that
/// comes due while that many searches are in flight: it is counted and
/// never reaches the server, so an overloaded phase ends without the
/// server rejecting anything.
pub fn run_phase<T: Target>(
    target: &T,
    mix: &Mix,
    next_seq: &mut u64,
    pace: Pace,
    duration: Duration,
    backlog_cap: Option<usize>,
) -> Phase {
    let reaped = AtomicUsize::new(0);
    let (tx, rx) = sync_channel::<InFlight<T::Pending>>(1 << 14);
    // A search needs a token, and the reaper returns one per answer, so
    // the submitter blocks rather than spins.
    let slots = match pace {
        Pace::Closed(n) => n.max(1),
        Pace::Open(_) => OPEN_IN_FLIGHT,
    };
    let (token_tx, token_rx) = sync_channel::<()>(slots);
    for _ in 0..slots {
        token_tx.send(()).expect("token channel has room");
    }
    let token_back = token_tx.clone();
    let mut out = Phase::default();
    let start = Instant::now();
    // Open loop: Poisson arrivals, so no fixed inter-arrival interval
    // can resonate with the dispatcher's batching window.
    let horizon = duration.as_secs_f64();
    let mut offset = 0.0f64;
    let mut mid_seen = false;
    let (reaper_out, last_answer) = std::thread::scope(|scope| {
        let reaped = &reaped;
        let reaper = scope.spawn(move || {
            let mut answered = Vec::new();
            let mut latencies = Vec::new();
            let mut failed = 0usize;
            let mut errors = Vec::new();
            let mut last = Instant::now();
            for item in rx {
                let answer = trace::span("serve.wait", Some("client.request"), item.seq, || {
                    T::wait(item.pending)
                });
                last = Instant::now();
                trace::record("client.request", None, item.seq, item.since);
                match answer {
                    Ok(hits) => {
                        latencies.push(last.duration_since(item.since).as_nanos() as f64 / 1e3);
                        answered.push((item.seq, item.query, item.k, hits));
                    }
                    Err(e) => {
                        failed += 1;
                        keep(&mut errors, &e);
                    }
                }
                // Relaxed: a progress counter read for backlog only.
                reaped.fetch_add(1, Ordering::Relaxed);
                let _ = token_tx.send(());
            }
            trace::flush();
            ((answered, latencies, failed, errors), last)
        });
        let mut searches_sent = 0usize;
        loop {
            let due = match pace {
                Pace::Closed(_) => {
                    if matches!(mix.op(*next_seq), Op::Search { .. }) {
                        token_rx.recv().expect("reaper returns tokens");
                    }
                    let now = Instant::now();
                    if now.duration_since(start) >= duration {
                        break;
                    }
                    now
                }
                Pace::Open(rate) => {
                    if offset >= horizon {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(offset);
                    let u = unit(mix64(mix.seed ^ 0xA881_7A15 ^ mix64(*next_seq)));
                    offset += -(1.0 - u).ln() / rate;
                    pace_until(due);
                    out.lag_us
                        .push(Instant::now().duration_since(due).as_nanos() as f64 / 1e3);
                    due
                }
            };
            let backlog = searches_sent - reaped.load(Ordering::Relaxed);
            if !mid_seen && offset >= horizon / 2.0 {
                mid_seen = true;
                out.backlog_mid = backlog;
            }
            if backlog_cap.is_some_and(|cap| backlog >= cap) {
                out.shed += 1;
                *next_seq += 1;
                continue;
            }
            let seq = *next_seq;
            *next_seq += 1;
            out.attempted += 1;
            match mix.op(seq) {
                Op::Store { word } => {
                    let row =
                        trace::span("serve.store", None, seq, || target.store(&mix.words[word]));
                    match row {
                        Ok(row) => {
                            out.store_us
                                .push(Instant::now().duration_since(due).as_nanos() as f64 / 1e3);
                            out.stores.push((seq, word, row));
                        }
                        Err(e) => {
                            out.failed += 1;
                            keep(&mut out.errors, &e);
                        }
                    }
                }
                Op::Search { query, k } => {
                    if matches!(pace, Pace::Open(_)) {
                        token_rx.recv().expect("reaper returns tokens");
                    }
                    let submitted =
                        trace::span("serve.submit", Some("client.request"), seq, || {
                            target.submit(&mix.queries[query], k)
                        });
                    match submitted {
                        Ok(pending) => {
                            searches_sent += 1;
                            let item = InFlight {
                                seq,
                                query,
                                k,
                                since: due,
                                pending,
                            };
                            if tx.send(item).is_err() {
                                out.failed += 1;
                            }
                        }
                        Err(e) => {
                            let _ = token_back.send(());
                            out.failed += 1;
                            keep(&mut out.errors, &e);
                        }
                    }
                }
            }
        }
        out.backlog_end = searches_sent - reaped.load(Ordering::Relaxed);
        drop(tx);
        trace::flush();
        reaper.join().expect("reaper thread")
    });
    let ((answered, latencies, failed, errors), last) = (reaper_out, last_answer);
    out.errors.extend(errors);
    out.elapsed = last
        .max(start + Duration::from_micros(1))
        .duration_since(start);
    out.answered = answered.len();
    out.searches = answered;
    out.search_us = latencies;
    out.failed += failed;
    out
}
