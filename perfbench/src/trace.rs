//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! Tracing is off unless [`enable`] was called: a disabled span costs
//! one relaxed atomic load and reads no clock. Enabled spans go to a
//! per-thread buffer; [`flush`] moves a thread's buffer to the global
//! list, and [`take`] hands every flushed span to the caller.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One recorded span. Spans of one request share `req`; `parent`
/// names the span that caused this one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub req: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ns(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Every span taken so far, kept for the summary written at exit.
static ARCHIVE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off for every thread.
pub fn enable(on: bool) {
    // Relaxed: spans only need to be recorded by threads started after
    // the switch, which thread spawn orders anyway.
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a span with explicit bounds (for spans that start before
/// the code that records them, such as a request timed from when it
/// was due).
pub fn record(name: &'static str, parent: Option<&'static str>, req: u64, start: Instant) {
    if enabled() {
        let end = Instant::now();
        LOCAL.with(|l| {
            l.borrow_mut().push(Span {
                name,
                parent,
                req,
                start,
                end,
            })
        });
    }
}

/// Times `f` as a span named `name` when tracing is on.
pub fn span<R>(
    name: &'static str,
    parent: Option<&'static str>,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(name, parent, req, start);
    out
}

/// Moves this thread's spans to the global list.
pub fn flush() {
    let local = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if !local.is_empty() {
        SPANS.lock().expect("span list lock").extend(local);
    }
}

/// Takes every flushed span, leaving the global list empty.
pub fn take() -> Vec<Span> {
    flush();
    let spans = std::mem::take(&mut *SPANS.lock().expect("span list lock"));
    ARCHIVE
        .lock()
        .expect("span archive lock")
        .extend_from_slice(&spans);
    spans
}

/// Per span name: count, total ns, self ns (total minus the time of
/// child spans of the same request), median ns and p99 ns — over
/// every span taken so far.
pub fn summary() -> Vec<(&'static str, usize, f64, f64, f64, f64)> {
    take();
    let spans = ARCHIVE.lock().expect("span archive lock").clone();
    let mut child_ns: HashMap<(&'static str, u64), f64> = HashMap::new();
    for s in &spans {
        if let Some(parent) = s.parent {
            *child_ns.entry((parent, s.req)).or_default() += s.ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
    let mut seen: HashSet<(&'static str, u64)> = HashSet::new();
    for s in &spans {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.ns());
        // A request's children are subtracted from its first span.
        if seen.insert((s.name, s.req)) {
            entry.1 += child_ns.get(&(s.name, s.req)).copied().unwrap_or(0.0);
        }
    }
    by_name
        .into_iter()
        .map(|(name, (ns, children))| {
            let total: f64 = ns.iter().sum();
            let sorted = stats::sorted(&ns);
            (
                name,
                ns.len(),
                total,
                total - children,
                stats::percentile(&sorted, 0.5).unwrap_or(0.0),
                stats::percentile(&sorted, 0.99).unwrap_or(0.0),
            )
        })
        .collect()
}

/// Durations in ns of the spans named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect()
}
