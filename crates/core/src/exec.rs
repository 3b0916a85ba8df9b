//! Compiled, batched query execution for MCAM search.
//!
//! The scalar reference path ([`McamArray::search`]) walks
//! `n_rows × word_len` cells per query and dispatches each one through
//! the LUT (shared bank) or the realized per-cell bank (variation).
//! That models the physics faithfully but is architecturally the
//! opposite of the hardware, where every match line evaluates at once.
//! This module is the software analogue of that parallelism: a query
//! plan compiled once per stored array, executed as contiguous gathers
//! and sums.
//!
//! # Plane-major layout
//!
//! [`CompiledMcam`] precomputes one **conductance plane per input
//! level**: `plane[input]` holds, for every `(column, row)`, the
//! conductance that a search input `input` would draw through the cell
//! at `(row, column)`. Planes are laid out column-major with rows
//! contiguous:
//!
//! ```text
//! planes[(input * word_len + column) * n_rows + row]
//! ```
//!
//! A query `q` then reduces to `word_len` strided plane lookups: for
//! each column `c`, fetch the contiguous row-vector of plane
//! `q[c]`/column `c` and add it elementwise into the per-row
//! accumulator. No per-cell branch, no bank dispatch, unit-stride inner
//! loops — one plane column is exactly the vector a physical driver
//! applies to one search line. For shared-LUT arrays the planes are
//! expanded from the `n_levels × n_levels` LUT; for arrays built with
//! device variation they are gathered from the realized per-cell bank,
//! so a compiled search reproduces the same disorder as the scalar
//! path.
//!
//! The batched kernel is cache-tiled: rows advance in panels sized so
//! one plane-column slice stays L1-resident while it serves every query
//! in the block, and each worker thread owns one reusable
//! `BatchScratch` of accumulators and top-k heap storage — the hot
//! path performs **no per-query heap allocation**.
//!
//! # Precision modes
//!
//! Plans are generic over a [`PlaneScalar`] — the element type of the
//! conductance planes and of the match-line accumulators:
//!
//! * **`f64` (the default, [`Precision::F64`])** is the *reference*
//!   mode. Per row, conductances fold in ascending column order
//!   starting from `0.0`, exactly like [`McamArray::search`], so every
//!   `f64` result in this module is **bit-identical** to the scalar
//!   physics path — not merely close. This is the mode all property
//!   tests pin against.
//! * **`f32` ([`Precision::F32`])** is the opt-in *fast* mode: planes
//!   are rounded to `f32` at compile time and match lines accumulate in
//!   `f32`. Halving the plane bytes roughly doubles the throughput of
//!   this bandwidth-bound kernel and doubles SIMD lane width, at the
//!   cost of exactness. The accuracy contract is: per row, the relative
//!   error of a total conductance is bounded by
//!   `word_len · ε_f32 ≈ word_len · 1.2e-7` (one rounding per plane
//!   read plus one per add, all values positive, no cancellation), so
//!   rankings only change between rows whose `f64` conductances agree
//!   to within that bound. Top-1/top-k recall against the `f64`
//!   reference is asserted by `tests/precision_props.rs`; rows an `f32`
//!   search ranks into the top k are always within relative `1e-5` of
//!   the true k-th best in practice. All public results (scores,
//!   [`SearchOutcome`] conductances) are reported as `f64` in both
//!   modes; in `f32` mode they are exact widenings of the `f32`
//!   accumulators.
//!
//! ## Codes mode
//!
//! **[`Precision::Codes`]** is the *bandwidth-floor* mode for
//! shared-LUT arrays. The MCAM stores discrete levels — 4–16
//! conductance states per cell — yet the plane modes above materialize
//! one dense scalar plane per input level (`n_levels × word_len ×
//! n_rows` scalars). [`CompiledCodes`] instead keeps the array as
//! **byte-packed level codes** (`codes[column][row] = stored_level`,
//! one byte per cell, independent of `n_levels`) plus the shared
//! `n_levels × n_levels` conductance LUT rounded to `f32`. Per column,
//! the query level selects one `n_levels`-entry LUT row — a tiny
//! L1-resident gather table — and the inner loop is a unit-stride
//! `table[code[row]]` gather-accumulate, streaming 1 byte per cell
//! where the `f32` planes stream 4 and the `f64` planes 8×`n_levels`
//! resident.
//!
//! On x86-64 with AVX2 and ladders up to 3 bits (the paper's headline
//! configuration), the gather table is one 8-lane vector register and
//! the loop is **shift-and-permute**. One 256-bit load brings in 32
//! codes, so dword lane `j` holds rows `4j..4j+3`, one per byte.
//! `vpermps` reads only the low 3 bits of each index lane, so the raw
//! vector gathers rows `4j` and the vector shifted right by 8, 16 and
//! 24 bits gathers rows `4j+1..4j+3`: one load, three shifts, four
//! permutes and four adds per 32 cells, with no widening of codes to
//! dword indices. Running sums for 64 rows stay in registers across the
//! column sweep, and one 4×8 in-register transpose per 32 rows puts
//! them back in row order. A query costs the same per cell whether it
//! runs alone or in a batch: a batch block runs the same per-query
//! loop over an L1-sized row tile for each of its queries. Other
//! ladders and CPUs take the portable path, which gathers each
//! `(column, level)` micro-plane a block needs once and then sums the
//! micro-planes per query.
//!
//! **Exactness contract:** on shared-LUT arrays the gathered values are
//! the very same `f32` roundings the `f32` planes hold, and each row
//! folds them in the same ascending column order into an `f32`
//! accumulator — so codes results are **bit-identical to
//! [`Precision::F32`]**, not merely close, and the `f32` accuracy
//! contract above applies verbatim. `tests/precision_props.rs` pins
//! this bit-identity.
//!
//! **When fallback triggers:** arrays realized with device variation
//! ([`crate::array::VariationSpec`]) carry per-cell conductances that
//! no shared LUT can represent. The plan cache detects this and
//! transparently executes the `f32` plane plan instead; the
//! [`CodesDispatch`] inside the [`Plan::Codes`] an array hands back
//! ([`McamArray::plan`]) tells you which engine served you.
//!
//! Resident plan memory drops from `n_levels × word_len × n_rows`
//! scalars to `word_len × n_rows` bytes (plus a negligible LUT) — 64×
//! below the `f64` planes on the 3-bit ladder — which is what lets one
//! node keep millions of rows compiled
//! ([`McamArray::plan_memory_bytes`] exposes the per-slot budget).
//! Compiling a code plan costs roughly one scalar query (one byte write
//! per cell), so even a lone cold-cache query amortizes it
//! ([`CODES_COMPILE_THRESHOLD`]).
//!
//! Callers pick a mode per call: every search entry point on
//! [`McamArray`], [`crate::banked::BankedMcam`] and
//! [`crate::router::RoutedMcam`] takes `spec: impl Into<`[`SearchSpec`]`>`,
//! whose `precision` field selects the plan (a bare [`Precision`]
//! converts, keeping the default metric). Engines carry one spec for
//! all their queries ([`crate::engines::McamNn::set_precision`]).
//!
//! # Metric modes
//!
//! Beside [`Precision`], every compiled plan carries a [`Metric`]: the
//! distance semantics its per-cell values encode. The kernel is always
//! "fold a per-cell value over the row", so a metric is nothing more
//! than a different value table plus (for L∞) a different fold:
//!
//! * **[`Metric::McamConductance`]** (the default) folds the device
//!   LUT's conductances with `+` — the paper's analog distance, the
//!   only metric that sees device variation.
//! * **[`Metric::L1`]** synthesizes a *distance-valued* table from the
//!   level ladder — `|input − state|` per cell — and sums it: exact
//!   digital Manhattan distance in level space.
//! * **[`Metric::Hamming`]** synthesizes `0/1` per cell (mismatch
//!   counting) and sums it.
//! * **[`Metric::Linf`]** synthesizes `|input − state|` and folds it
//!   with `max` instead of `+` — the one metric that exercises the
//!   generalized reduce strategy of the block kernels (every
//!   accumulate loop, scalar and AVX2 alike, is monomorphized over
//!   Sum/Max at dispatch time).
//!
//! "Smaller score = nearer" stays the universal contract: synthesized
//! tables hold distances, so argmin, bounded-heap top-k, and the banked
//! winner merges work unchanged across metrics. All synthesized values
//! are non-negative, so `0` is a valid fold identity for both Sum and
//! Max. Synthesized metrics are *digital* — they read stored level
//! codes, never realized conductances — so they are exact under device
//! variation too, and [`Precision::Codes`] packs them even on per-cell
//! banks (only [`Metric::McamConductance`] needs the `f32` plane
//! fallback there). Per metric, the same bit-identity ladder holds as
//! for precisions: `f64` plans match the scalar per-metric oracle
//! ([`McamArray::search_metric`]) bit-for-bit, codes match `f32`
//! planes bit-for-bit (`tests/metric_props.rs` pins both).
//!
//! The metric is the other field of a [`SearchSpec`], so one call
//! names both settings: `SearchSpec { precision, metric }`. The
//! [`PlanCache`] keys its slots by exactly that pair, so mixed metric
//! traffic against one array caches one plan per combination and every
//! mutation invalidates them all.
//!
//! # Cached, auto-recompiling plans
//!
//! A plan is a snapshot of the array contents at compile time. So that
//! callers get compiled speed without managing snapshots, every
//! [`McamArray`] (and, per bank, every [`crate::banked::BankedMcam`])
//! owns a [`PlanCache`]: the first search through a cached entry point
//! compiles and stores the plan (one slot per precision), and any
//! mutation ([`McamArray::store`]) invalidates the cache so the next
//! search transparently recompiles against the new contents. A banked
//! memory invalidates only the bank that changed.
//!
//! # Determinism guarantee
//!
//! Per row, the scalar path folds cell conductances in ascending column
//! order starting from `0.0`; the compiled path accumulates plane
//! columns in exactly the same ascending column order (row panels tile
//! the row axis, never the column axis). Floating-point addition
//! happens in an identical sequence, so compiled `f64` results are
//! **bit-identical** to [`McamArray::search`]. Row-chunked and
//! query-parallel execution ([`Plan::search_batch`], the banked winner
//! merge) shard only across rows, queries, and banks —
//! never within one row's fold — and every reduction is a fixed-order
//! fold over results reassembled in input order ([`crate::par`]), so
//! parallel execution is bit-identical too, at any thread count. The
//! property tests in `tests/batch_parallel_props.rs` assert this. The
//! same sequencing holds in `f32` mode (the fold is identical, just in
//! `f32`), so `f32` results are deterministic and thread-count
//! independent as well.
//!
//! # Bank-mask contract
//!
//! A banked search takes its bank mask beside the [`SearchSpec`]:
//! [`BankedMcam::search_batch_winners_masked`] and
//! [`BankedMcam::search_batch_top_k_masked`] sweep only the listed
//! banks, and the unmasked [`BankedMcam::search_batch_winners_with`] /
//! [`BankedMcam::search_batch_top_k_with`] *are* those calls with the
//! all-banks mask — one implementation per result shape. A mask must be
//! nonempty, strictly ascending and in range; anything else is
//! [`CoreError::InvalidParameter`].
//!
//! The banked driver never assumes it is sweeping every bank: each
//! per-bank kernel arrives paired with the **global base row** of that
//! bank, and a winner is always reported as `base + local`. A full
//! sweep is just the instantiation whose bases are
//! `[0, rows_per_bank, 2·rows_per_bank, ..]`; a routed sweep (see
//! [`crate::router`]) passes the same kernels for a *subset* of banks,
//! in ascending bank order, with each bank's true base.
//!
//! Because the merge is the same fixed-order fold either way, a masked
//! sweep obeys the full-sweep contract restricted to its subset: per
//! query, the winner is the row a sequential scan of exactly the masked
//! banks would report, conductances are bit-identical to the full sweep
//! (each bank's fold never sees the mask), and exact ties still resolve
//! to the lowest global row *within the mask* — the property
//! `tests/routing_props.rs` pins across all precisions.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::{Arc, PoisonError};

use crate::sync::{Mutex, MutexGuard};

use crate::array::{McamArray, SearchOutcome};
#[cfg(doc)]
use crate::banked::BankedMcam;
use crate::error::CoreError;
use crate::par;
use crate::Result;

/// Runtime selector for the plan element type (see the
/// [module-level "Precision modes"](self#precision-modes)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Precision {
    /// `f64` planes and accumulators — bit-identical to the scalar
    /// reference path. The default.
    #[default]
    F64,
    /// `f32` planes and accumulators — roughly 2× faster on the
    /// bandwidth-bound kernel, with the documented accuracy contract.
    F32,
    /// Byte-packed level codes plus the shared `f32` LUT — the
    /// lowest-bandwidth mode: bit-identical to [`Precision::F32`] on
    /// shared-LUT arrays, transparent `f32` plane fallback under device
    /// variation (see the
    /// [module-level "Codes mode"](self#codes-mode)).
    Codes,
}

impl Precision {
    /// Short lowercase name (`"f64"` / `"f32"` / `"codes"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Codes => "codes",
        }
    }

    /// Engine-name suffix: empty for the default [`Precision::F64`],
    /// `"-f32"` / `"-codes"` for the opt-in modes — the single
    /// definition every engine/backend report name appends.
    #[must_use]
    pub fn name_suffix(self) -> &'static str {
        match self {
            Precision::F64 => "",
            Precision::F32 => "-f32",
            Precision::Codes => "-codes",
        }
    }
}

/// Number of [`Metric`] variants — the per-metric slot count of a
/// [`PlanCache`].
pub const N_METRICS: usize = 4;

/// Runtime selector for the distance semantics of a compiled plan (see
/// the [module-level "Metric modes"](self#metric-modes)).
///
/// Orthogonal to [`Precision`]: every `(precision, metric)` combination
/// compiles, caches, and searches independently. "Smaller score =
/// nearer" holds for every metric — non-default metrics fold
/// *distance-valued* tables synthesized from the level ladder, so the
/// winner/top-k machinery is metric-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Metric {
    /// The paper's analog distance: fold the device LUT's conductances
    /// with `+`. The default, and the only metric that sees device
    /// variation.
    #[default]
    McamConductance,
    /// Digital Manhattan distance in level space: sum of
    /// `|input − state|` per cell.
    L1,
    /// Digital Chebyshev distance: `max` of `|input − state|` per cell
    /// — the max-fold metric.
    Linf,
    /// Mismatch count: sum of `0/1` per cell.
    Hamming,
}

impl Metric {
    /// Every metric, in [`index`](Self::index) order.
    pub const ALL: [Metric; N_METRICS] = [
        Metric::McamConductance,
        Metric::L1,
        Metric::Linf,
        Metric::Hamming,
    ];

    /// Short lowercase name (`"mcam"` / `"l1"` / `"linf"` /
    /// `"hamming"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::McamConductance => "mcam",
            Metric::L1 => "l1",
            Metric::Linf => "linf",
            Metric::Hamming => "hamming",
        }
    }

    /// Engine-name suffix: empty for the default, `"-l1"` / `"-linf"`
    /// / `"-hamming"` for the opt-in metrics — the single definition
    /// every engine/backend report name appends (mirroring
    /// [`Precision::name_suffix`]).
    #[must_use]
    pub fn name_suffix(self) -> &'static str {
        match self {
            Metric::McamConductance => "",
            Metric::L1 => "-l1",
            Metric::Linf => "-linf",
            Metric::Hamming => "-hamming",
        }
    }

    /// The dense `0..N_METRICS` index of this metric — the
    /// [`PlanCache`] slot it compiles into, and a stable key for
    /// per-metric tables (the serving layer groups micro-batch windows
    /// with it). [`Metric::ALL`]`[m.index()] == m`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Metric::McamConductance => 0,
            Metric::L1 => 1,
            Metric::Linf => 2,
            Metric::Hamming => 3,
        }
    }

    /// Whether this metric folds per-cell values with `max` instead of
    /// `+` (only [`Metric::Linf`]).
    #[must_use]
    pub fn is_max_fold(self) -> bool {
        matches!(self, Metric::Linf)
    }

    /// The synthesized per-cell distance of a *digital* metric for an
    /// `(input, state)` level pair. Never called for the default
    /// metric, whose values come from the device LUT (or the realized
    /// per-cell bank) instead.
    pub(crate) fn level_distance(self, input: u8, state: u8) -> f64 {
        match self {
            Metric::McamConductance => {
                unreachable!("the conductance metric reads the device LUT")
            }
            Metric::L1 | Metric::Linf => (f64::from(input) - f64::from(state)).abs(),
            Metric::Hamming => {
                if input == state {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// The settings of one search: the [`Precision`] its plan executes at
/// and the [`Metric`] it scores with. Every search entry point on
/// [`McamArray`], [`crate::banked::BankedMcam`] and
/// [`crate::router::RoutedMcam`] takes `spec: impl Into<SearchSpec>`,
/// so a bare [`Precision`] keeps the default metric.
///
/// # Examples
///
/// ```
/// use femcam_core::{Metric, Precision, SearchSpec};
///
/// let spec = SearchSpec::from(Precision::Codes);
/// assert_eq!(spec.metric, Metric::McamConductance);
/// let l1 = SearchSpec { metric: Metric::L1, ..spec };
/// assert_eq!(l1.precision, Precision::Codes);
/// assert_eq!(SearchSpec::default(), SearchSpec::from(Precision::F64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SearchSpec {
    /// The plan element type (see
    /// ["Precision modes"](self#precision-modes)).
    pub precision: Precision,
    /// The distance semantics (see ["Metric modes"](self#metric-modes)).
    pub metric: Metric,
}

impl From<Precision> for SearchSpec {
    fn from(precision: Precision) -> Self {
        SearchSpec {
            precision,
            metric: Metric::default(),
        }
    }
}

/// Cold-cache amortization threshold for [`Precision::Codes`]: the
/// batch size from which compiling a packed-code plan pays for itself.
///
/// Compiling costs one pass over the stored cells (a byte write per
/// cell) plus an `n_levels × n_levels` LUT round-trip — about the cost
/// of ONE scalar query over the same cells — so a single query already
/// amortizes it. This is why the codes entry points compile eagerly, in
/// contrast to the cached `f64` path whose compile costs `n_levels`
/// full plane fills (hence a cold `f64` cache falls back to the scalar
/// path until it has served `n_levels` queries there).
///
/// This constant *documents* that decision (and is pinned by tests); a
/// threshold of 1 means "always compile", which the entry points
/// implement by compiling unconditionally — editing this value alone
/// changes nothing without also gating the codes arm of
/// [`PlanCache`]'s lookup.
pub const CODES_COMPILE_THRESHOLD: usize = 1;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// Element type of a compiled plan: the scalar the conductance planes
/// are stored in and the match-line accumulators fold in.
///
/// Implemented for `f64` (bit-identical reference) and `f32` (fast
/// mode); sealed — the two modes are a deliberate, documented contract,
/// not an extension point.
pub trait PlaneScalar:
    Copy + PartialOrd + Send + Sync + std::fmt::Debug + sealed::Sealed + 'static
{
    /// The additive identity the per-row fold starts from.
    const ZERO: Self;
    /// The runtime tag for this scalar.
    const PRECISION: Precision;

    /// Rounds an `f64` conductance into this scalar (plane
    /// compilation).
    fn from_f64(v: f64) -> Self;
    /// Widens back to `f64` for reporting (exact for both impls).
    fn to_f64(self) -> f64;
    /// Addition in this precision (the determinism-critical fold step).
    fn add(self, rhs: Self) -> Self;
    /// Maximum in this precision (the [`Metric::Linf`] fold step). Plan
    /// values are non-negative and finite, so the plain `>` maximum is
    /// well defined and `ZERO` is its identity.
    fn max(self, rhs: Self) -> Self;

    /// The Sum/Max reduce the accumulate kernels monomorphize over:
    /// `MAX` selects the fold at compile time, so the inner loops carry
    /// no per-element branch.
    #[inline(always)]
    fn fold<const MAX: bool>(self, rhs: Self) -> Self {
        if MAX {
            self.max(rhs)
        } else {
            self.add(rhs)
        }
    }

    /// The per-metric cache slots for this precision inside a
    /// [`PlanCache`].
    #[doc(hidden)]
    fn plan_slot(cache: &PlanCache) -> &Mutex<[Option<Arc<CompiledMcam<Self>>>; N_METRICS]>
    where
        Self: Sized;
}

impl PlaneScalar for f64 {
    const ZERO: Self = 0.0;
    const PRECISION: Precision = Precision::F64;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        if rhs > self {
            rhs
        } else {
            self
        }
    }

    fn plan_slot(cache: &PlanCache) -> &Mutex<[Option<Arc<CompiledMcam<Self>>>; N_METRICS]> {
        &cache.f64_plans
    }
}

impl PlaneScalar for f32 {
    const ZERO: Self = 0.0;
    const PRECISION: Precision = Precision::F32;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        if rhs > self {
            rhs
        } else {
            self
        }
    }

    fn plan_slot(cache: &PlanCache) -> &Mutex<[Option<Arc<CompiledMcam<Self>>>; N_METRICS]> {
        &cache.f32_plans
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Interior-mutable cache of compiled plans for one array: one slot per
/// `(`[`Precision`]`, `[`Metric`]`)` combination, filled lazily on
/// first use and cleared by [`invalidate`](Self::invalidate) when the
/// array mutates (the dirty-flag half of auto-recompilation — an empty
/// slot *is* the dirty flag).
#[derive(Debug)]
pub struct PlanCache {
    f64_plans: Mutex<[Option<Arc<CompiledMcam<f64>>>; N_METRICS]>,
    f32_plans: Mutex<[Option<Arc<CompiledMcam<f32>>>; N_METRICS]>,
    codes_plans: Mutex<[Option<Arc<CompiledCodes>>; N_METRICS]>,
    /// Queries the cold `f64` slot of each metric has left to the
    /// scalar fallback since the last invalidation.
    f64_scalar_served: [AtomicUsize; N_METRICS],
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            f64_plans: Mutex::new("core.plan_cache.f64", Default::default()),
            f32_plans: Mutex::new("core.plan_cache.f32", Default::default()),
            codes_plans: Mutex::new("core.plan_cache.codes", Default::default()),
            f64_scalar_served: Default::default(),
        }
    }
}

impl PlanCache {
    /// The plan `spec` executes on, compiling and caching it from
    /// `array` on a miss. The codes-mode dispatch lives here: packable
    /// `(array, metric)` pairs get the packed-code plan; the
    /// conductance metric on per-cell (variation) arrays transparently
    /// falls back to the cached `f32` plane plan — see the
    /// [module-level "Codes mode"](self#codes-mode). Synthesized
    /// (digital) metrics always pack.
    ///
    /// # Errors
    ///
    /// Propagates compile failures (the slot stays empty).
    pub(crate) fn get_or_compile(&self, array: &McamArray, spec: SearchSpec) -> Result<Plan> {
        let metric = spec.metric;
        Ok(match spec.precision {
            Precision::F64 => Plan::F64(self.plane(array, metric)?),
            Precision::F32 => Plan::F32(self.plane(array, metric)?),
            Precision::Codes => Plan::Codes(self.codes(array, metric)?),
        })
    }

    /// The cached plane plan for `S` at `metric`, compiling it on a
    /// miss.
    pub(crate) fn plane<S: PlaneScalar>(
        &self,
        array: &McamArray,
        metric: Metric,
    ) -> Result<Arc<CompiledMcam<S>>> {
        let mut slots = lock(S::plan_slot(self));
        if let Some(plan) = slots[metric.index()].as_ref() {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(CompiledMcam::<S>::compile(array, metric)?);
        slots[metric.index()] = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// The cached codes-mode engine at `metric`, compiling it on a miss
    /// (see [`get_or_compile`](Self::get_or_compile) for the dispatch).
    pub(crate) fn codes(&self, array: &McamArray, metric: Metric) -> Result<CodesDispatch> {
        if metric == Metric::McamConductance && array.has_per_cell_bank() {
            return Ok(CodesDispatch::Planes(self.plane::<f32>(array, metric)?));
        }
        let mut slots = lock(&self.codes_plans);
        if let Some(plan) = slots[metric.index()].as_ref() {
            return Ok(CodesDispatch::Packed(Arc::clone(plan)));
        }
        let plan = Arc::new(CompiledCodes::compile(array, metric)?);
        slots[metric.index()] = Some(Arc::clone(&plan));
        Ok(CodesDispatch::Packed(plan))
    }

    /// The `f64` plan a batch of `batch` queries at `metric` should run
    /// on, or `None` for the bit-identical scalar sweep. A warm plan is
    /// always reused. A cold one compiles once the compile pays: a
    /// compile costs `n_levels` plane fills, about `n_levels` scalar
    /// queries, so it runs once the queries this slot has left to the
    /// scalar sweep since the last invalidation, this batch included,
    /// reach `n_levels`. One large batch compiles at once; a steady
    /// trickle of small batches warms the plan after `n_levels`
    /// queries instead of never.
    ///
    /// # Errors
    ///
    /// Propagates compile failures (the slot stays empty).
    pub(crate) fn f64_amortized(
        &self,
        array: &McamArray,
        metric: Metric,
        batch: usize,
    ) -> Result<Option<Arc<CompiledMcam<f64>>>> {
        if let Some(plan) = lock(&self.f64_plans)[metric.index()].as_ref() {
            return Ok(Some(Arc::clone(plan)));
        }
        // ORDERING: Relaxed — an amortization count, not a hand-off: a
        // racing search can only move the compile by one batch, and
        // both paths return bit-identical results.
        let served = self.f64_scalar_served[metric.index()]
            .fetch_add(batch, atomic::Ordering::Relaxed)
            .saturating_add(batch);
        if served < array.ladder().n_levels() {
            return Ok(None);
        }
        self.plane(array, metric).map(Some)
    }

    /// Resident bytes of each cached plan slot, summed across metrics
    /// per precision (0 = every slot of that precision cold) — the
    /// introspection behind [`McamArray::plan_memory_bytes`].
    #[must_use]
    pub fn memory_bytes(&self) -> PlanMemoryBytes {
        fn sum_planes<S: PlaneScalar>(slots: &[Option<Arc<CompiledMcam<S>>>; N_METRICS]) -> usize {
            slots
                .iter()
                .map(|s| s.as_ref().map_or(0, |p| p.plan_bytes()))
                .sum()
        }
        PlanMemoryBytes {
            f64_plane: sum_planes(&lock(&self.f64_plans)),
            f32_plane: sum_planes(&lock(&self.f32_plans)),
            codes: lock(&self.codes_plans)
                .iter()
                .map(|s| s.as_ref().map_or(0, |p| p.plan_bytes()))
                .sum(),
        }
    }

    /// Drops every cached plan (all precisions, all metrics) and
    /// restarts the `f64` amortization counts; the next search
    /// recompiles.
    pub fn invalidate(&mut self) {
        for served in &mut self.f64_scalar_served {
            *served.get_mut() = 0;
        }
        *self
            .f64_plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Default::default();
        *self
            .f32_plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Default::default();
        *self
            .codes_plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Default::default();
    }
}

/// Resident bytes of an array's cached compiled plans, one field per
/// [`PlanCache`] slot (0 = slot empty / never compiled). Serving-layer
/// backpressure can budget node memory against
/// [`total`](Self::total); the per-slot split shows what switching
/// modes buys (codes plans are `n_levels × size_of::<f64>()` ≈ 64×
/// smaller than `f64` planes on the 3-bit ladder).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlanMemoryBytes {
    /// Bytes held by the cached `f64` plane plan.
    pub f64_plane: usize,
    /// Bytes held by the cached `f32` plane plan.
    pub f32_plane: usize,
    /// Bytes held by the cached packed-code plan (codes + `f32` LUT).
    pub codes: usize,
}

impl PlanMemoryBytes {
    /// Total resident plan bytes across all slots.
    #[must_use]
    pub fn total(&self) -> usize {
        self.f64_plane + self.f32_plane + self.codes
    }
}

impl std::ops::AddAssign for PlanMemoryBytes {
    fn add_assign(&mut self, rhs: Self) {
        self.f64_plane += rhs.f64_plane;
        self.f32_plane += rhs.f32_plane;
        self.codes += rhs.codes;
    }
}

/// Per-worker reusable storage for the batched kernels: the block
/// accumulator panel plus bounded-heap top-k scratch. One scratch lives
/// for a worker's whole query group, so the per-query hot path
/// allocates nothing (results excepted — they are the output).
#[derive(Debug)]
struct BatchScratch<S> {
    acc: Vec<S>,
    /// Kernel-private auxiliary slab: the portable codes path's
    /// per-tile level-expansion panel. The AVX2 codes loop and the
    /// plane kernels leave it empty.
    aux: Vec<S>,
    heap: BinaryHeap<(TotalF64, usize)>,
    sorted: Vec<(TotalF64, usize)>,
}

impl<S: PlaneScalar> BatchScratch<S> {
    fn new() -> Self {
        BatchScratch {
            acc: Vec::new(),
            aux: Vec::new(),
            heap: BinaryHeap::new(),
            sorted: Vec::new(),
        }
    }
}

/// Validates one query against an array geometry of `word_len` cells
/// and `n_levels` input levels — the single definition every kernel's
/// `check_query` delegates to, public so admission-time validators
/// (e.g. a serving front end via
/// [`crate::banked::BankedMcam::check_query`]) reject malformed
/// requests with exactly the errors a search would report.
///
/// # Errors
///
/// [`CoreError::WordLengthMismatch`] for a wrong-length query,
/// [`CoreError::LevelOutOfRange`] for a level `>= n_levels`.
pub fn validate_query(word_len: usize, n_levels: usize, query: &[u8]) -> Result<()> {
    if query.len() != word_len {
        return Err(CoreError::WordLengthMismatch {
            expected: word_len,
            actual: query.len(),
        });
    }
    for &q in query {
        if q as usize >= n_levels {
            return Err(CoreError::LevelOutOfRange {
                level: q,
                max: (n_levels - 1) as u8,
            });
        }
    }
    Ok(())
}

/// Row-sharded single-query execution: splits `out` into one contiguous
/// row chunk per worker (at most `n_threads`) and runs
/// `accumulate(row_start, chunk)` on each — the shared sharding policy
/// of the plane and codes single-query paths.
fn shard_rows<S: Send, F>(n_rows: usize, n_threads: usize, out: &mut [S], accumulate: F)
where
    F: Fn(usize, &mut [S]) + Sync,
{
    if n_threads <= 1 || n_rows <= 1 {
        accumulate(0, out);
        return;
    }
    let threads = n_threads.min(n_rows);
    let chunk = n_rows.div_ceil(threads);
    std::thread::scope(|scope| {
        let accumulate = &accumulate;
        for (chunk_idx, slice) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || accumulate(chunk_idx * chunk, slice));
        }
    });
}

/// A query plan: the read-only, plane-major execution image of one
/// [`McamArray`] (see the [module docs](self) for the layout), with
/// planes and accumulators in `S` (see
/// ["Precision modes"](self#precision-modes)).
///
/// Compiling costs `n_levels × word_len × n_rows` LUT reads and the
/// same amount of memory; it pays for itself once a handful of queries
/// run against the same stored contents. Plans live in the array's
/// [`PlanCache`]: the first search that needs one compiles it, and a
/// store drops it. [`McamArray::plan`] hands one out for inspection.
///
/// # Examples
///
/// ```
/// use femcam_core::{ConductanceLut, LevelLadder, McamArray, Plan, Precision};
/// use femcam_device::FefetModel;
///
/// # fn main() -> femcam_core::Result<()> {
/// let ladder = LevelLadder::new(3)?;
/// let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
/// let mut array = McamArray::new(ladder, lut, 4);
/// array.store(&[0, 3, 7, 1])?;
/// array.store(&[5, 5, 5, 5])?;
/// let Plan::F64(plan) = array.plan(Precision::F64)? else { unreachable!() };
/// // Bit-identical to the scalar physics path.
/// assert_eq!(
///     plan.search(&[0, 3, 7, 1])?.conductances(),
///     array.search(&[0, 3, 7, 1])?.conductances(),
/// );
/// // Opt-in fast mode: f32 planes, ~2x on the bandwidth-bound kernel.
/// let Plan::F32(fast) = array.plan(Precision::F32)? else { unreachable!() };
/// assert_eq!(
///     fast.search(&[0, 3, 7, 1])?.best_row(),
///     plan.search(&[0, 3, 7, 1])?.best_row(),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledMcam<S: PlaneScalar = f64> {
    n_rows: usize,
    word_len: usize,
    n_levels: usize,
    /// The distance semantics the planes encode (and, for
    /// [`Metric::Linf`], the max fold the accumulators run).
    metric: Metric,
    /// `[input][column][row]`, rows contiguous.
    planes: Vec<S>,
}

/// Bytes of one plane-column row panel; sized so a panel slice stays
/// L1-resident while it serves every query in a block.
const ROW_TILE_BYTES: usize = 16 * 1024;

/// Accumulator budget per block: `block_len × row_tile` accumulators
/// stay within a comfortable slice of L2 alongside the plane panels.
const ACC_BUDGET_BYTES: usize = 256 * 1024;

/// Budget for the codes kernel's per-tile expansion slab
/// (`word_len × n_levels × row_tile` f32): the on-the-fly tile plane
/// every query in a block reads from. Sized to sit in L2 — the point of
/// the codes mode is that this slab is rebuilt from 1-byte codes per
/// tile instead of streamed from an `n_levels`-times-larger resident
/// plan.
const CODES_EXPAND_BUDGET_BYTES: usize = 512 * 1024;

/// Rows per register-blocked sub-tile of the codes serve loop: the
/// running sums fit in the vector register file, so the column sweep
/// never spills the accumulator.
const SERVE_SUB: usize = 32;

/// Rows per register group of the AVX2 codes loop ([`codes_group`]):
/// two 32-code loads per column, eight independent running sums to
/// hide the `f32` fold latency.
const CODES_GROUP_ROWS: usize = 64;

/// The vector face of [`PlaneScalar::fold`]: Sum or Max across eight
/// lanes, selected at monomorphization time. `#[inline(always)]` (and
/// no `target_feature` of its own) so it fuses into the AVX2 callers.
///
/// # Safety
///
/// Caller must have AVX2 enabled (the only callers are
/// `target_feature(enable = "avx2")` kernels).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// SAFETY: pure register arithmetic — sound whenever AVX2 is enabled,
// which the caller contract above guarantees (only reachable from
// `target_feature(enable = "avx2")` kernels).
unsafe fn fold_ps<const MAX: bool>(
    a: std::arch::x86_64::__m256,
    b: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    if MAX {
        _mm256_max_ps(a, b)
    } else {
        _mm256_add_ps(a, b)
    }
}

/// One register group of the AVX2 codes loop (see
/// [`CompiledCodes::accumulate_query_avx2`]): folds `32 × HALVES` rows
/// over every column of `query` and returns their sums in row order,
/// eight rows per vector. `load(c, h)` yields the 32 codes of half `h`
/// in column `c`.
///
/// Per half, sum `k` folds the LUT entries that the codes vector
/// shifted right by `8·k` bits selects, so its lane `j` is row
/// `4j + k`; a row's own fold stays one serial `f32` chain, as
/// bit-identity requires. After the sweep a 4×8 in-register transpose
/// puts each half's sums back in row order.
///
/// # Safety
///
/// Caller must have AVX2 enabled and `load` must be sound for every
/// `(c, h)` with `c < query.len()`, `h < HALVES`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// SAFETY: pure register arithmetic apart from `load`, whose soundness
// is the caller's obligation; `level & 7` keeps the table index in
// range, and `vpermps` reads only 3 bits per index lane, so any code
// byte is a valid permute index.
unsafe fn codes_group<const MAX: bool, const HALVES: usize>(
    tables: &[std::arch::x86_64::__m256; 8],
    query: &[u8],
    load: impl Fn(usize, usize) -> std::arch::x86_64::__m256i,
) -> [[std::arch::x86_64::__m256; 4]; HALVES] {
    use std::arch::x86_64::*;
    let mut sums = [[_mm256_setzero_ps(); 4]; HALVES];
    for (c, &level) in query.iter().enumerate() {
        let table = tables[usize::from(level & 7)];
        for (h, half) in sums.iter_mut().enumerate() {
            let mut v = load(c, h);
            for sum in half {
                *sum = fold_ps::<MAX>(*sum, _mm256_permutevar8x32_ps(table, v));
                v = _mm256_srli_epi32::<8>(v);
            }
        }
    }
    // Per 128-bit lane a 4×4 transpose gathers rows `4j..4j+3` into
    // one quarter; the cross-lane permute pairs the quarters. (In place,
    // not `array::map`: a closure defined outside a `target_feature`
    // function would not inline the intrinsics.)
    for half in &mut sums {
        let [a0, a1, a2, a3] = *half;
        let t0 = _mm256_unpacklo_ps(a0, a1);
        let t1 = _mm256_unpackhi_ps(a0, a1);
        let t2 = _mm256_unpacklo_ps(a2, a3);
        let t3 = _mm256_unpackhi_ps(a2, a3);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        *half = [
            _mm256_permute2f128_ps::<0x20>(u0, u1),
            _mm256_permute2f128_ps::<0x20>(u2, u3),
            _mm256_permute2f128_ps::<0x31>(u0, u1),
            _mm256_permute2f128_ps::<0x31>(u2, u3),
        ];
    }
    sums
}

impl<S: PlaneScalar> CompiledMcam<S> {
    /// Compiles the array's current contents into a plane-major plan
    /// whose per-cell values encode `metric` (see the
    /// [module-level "Metric modes"](self#metric-modes)): the device
    /// LUT / realized bank for [`Metric::McamConductance`], synthesized
    /// level-space distances otherwise. Plane construction fans out
    /// over input levels when the array is large enough to justify it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub(crate) fn compile(array: &McamArray, metric: Metric) -> Result<Self> {
        if array.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let n_rows = array.n_rows();
        let word_len = array.word_len();
        let n_levels = array.ladder().n_levels();
        let inputs: Vec<u8> = (0..n_levels as u8).collect();
        let plane_work = word_len * n_rows;
        let per_input = par::par_map(
            &inputs,
            par::threads_for(plane_work * n_levels),
            |_, &input| {
                let mut plane = Vec::with_capacity(plane_work);
                for c in 0..word_len {
                    for r in 0..n_rows {
                        plane.push(S::from_f64(array.cell_metric_value(r, c, input, metric)));
                    }
                }
                plane
            },
        );
        let mut planes = Vec::with_capacity(n_levels * plane_work);
        for plane in per_input {
            planes.extend(plane);
        }
        Ok(CompiledMcam {
            n_rows,
            word_len,
            n_levels,
            metric,
            planes,
        })
    }

    /// Rows in the compiled snapshot.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Cells per word.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Input/state levels per cell.
    #[must_use]
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// The precision this plan was compiled at.
    #[must_use]
    pub fn precision(&self) -> Precision {
        S::PRECISION
    }

    /// The metric this plan was compiled for.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Resident bytes of this plan's conductance planes.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        std::mem::size_of_val(self.planes.as_slice())
    }

    pub(crate) fn check_query(&self, query: &[u8]) -> Result<()> {
        validate_query(self.word_len, self.n_levels, query)
    }

    /// Accumulates the query into `out[..]` for rows
    /// `row_start..row_start + out.len()`, in ascending column order
    /// (the determinism-critical inner loop), dispatching once into the
    /// Sum- or Max-monomorphized fold.
    fn accumulate_rows(&self, query: &[u8], row_start: usize, out: &mut [S]) {
        if self.metric.is_max_fold() {
            self.accumulate_rows_fold::<true>(query, row_start, out);
        } else {
            self.accumulate_rows_fold::<false>(query, row_start, out);
        }
    }

    fn accumulate_rows_fold<const MAX: bool>(&self, query: &[u8], row_start: usize, out: &mut [S]) {
        out.fill(S::ZERO);
        for (c, &q) in query.iter().enumerate() {
            let base = (q as usize * self.word_len + c) * self.n_rows + row_start;
            let column = &self.planes[base..base + out.len()];
            for (acc, &g) in out.iter_mut().zip(column) {
                *acc = acc.fold::<MAX>(g);
            }
        }
    }

    /// Rows per cache panel of the tiled block kernel.
    fn row_tile(&self) -> usize {
        (ROW_TILE_BYTES / std::mem::size_of::<S>())
            .min(self.n_rows)
            .max(1)
    }

    /// Queries per grouped batch block, sized so one block's
    /// accumulator panel stays cache-resident (the plane panel loaded
    /// for a level then serves every query in the block that drives
    /// it).
    fn block_len(&self) -> usize {
        (ACC_BUDGET_BYTES / (self.row_tile() * std::mem::size_of::<S>()).max(1)).clamp(1, 16)
    }

    /// The cache-tiled grouped block kernel: accumulates a block of
    /// (validated) queries into `acc`, laid out query-major
    /// (`acc[q * n_rows + row]`). Row panels advance in the outer loop
    /// and columns in the next, so each query still folds its
    /// conductances in ascending column order — bit-identical to
    /// [`accumulate_rows`](Self::accumulate_rows) — while queries
    /// sharing an input level at a column reuse the same L1-hot plane
    /// panel instead of re-streaming it.
    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [S]) {
        if self.metric.is_max_fold() {
            self.accumulate_block_fold::<true>(queries, acc);
        } else {
            self.accumulate_block_fold::<false>(queries, acc);
        }
    }

    fn accumulate_block_fold<const MAX: bool>(&self, queries: &[&[u8]], acc: &mut [S]) {
        let n = self.n_rows;
        debug_assert!(acc.len() >= queries.len() * n);
        acc[..queries.len() * n].fill(S::ZERO);
        let tile = self.row_tile();
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            for c in 0..self.word_len {
                for (qi, q) in queries.iter().enumerate() {
                    let base = (q[c] as usize * self.word_len + c) * n;
                    let column = &self.planes[base + t0..base + t1];
                    let out = &mut acc[qi * n + t0..qi * n + t1];
                    for (a, &g) in out.iter_mut().zip(column) {
                        *a = a.fold::<MAX>(g);
                    }
                }
            }
            t0 = t1;
        }
    }

    /// Row-sharded single-query accumulation into `out` (`n_rows`
    /// scalars), forking onto exactly `n_threads` row chunks when
    /// `n_threads > 1`.
    fn accumulate_sharded(&self, query: &[u8], n_threads: usize, out: &mut [S]) {
        shard_rows(self.n_rows, n_threads, out, |row_start, slice| {
            self.accumulate_rows(query, row_start, slice);
        });
    }

    /// Executes one query and returns the full per-row outcome — in
    /// `f64` mode bit-identical to [`McamArray::search`] on the
    /// compiled contents. Rows shard across workers when the workload
    /// justifies forking ([`par::threads_for`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] / [`CoreError::LevelOutOfRange`]
    /// for malformed queries.
    pub fn search(&self, query: &[u8]) -> Result<SearchOutcome> {
        self.check_query(query)?;
        let threads = par::threads_for(self.n_rows * self.word_len);
        let mut out = vec![S::ZERO; self.n_rows];
        self.accumulate_sharded(query, threads, &mut out);
        Ok(SearchOutcome::from_conductances(
            out.iter().map(|g| g.to_f64()).collect(),
        ))
    }
}

/// The batched execution surface shared by the plane kernel
/// ([`CompiledMcam`]) and the packed-code kernel ([`CompiledCodes`] /
/// [`CodesDispatch`]): everything the generic batch drivers below need.
/// The drivers own the group/block orchestration exactly once; a kernel
/// only supplies its block accumulator and its work-sizing.
pub(crate) trait BlockKernel: Sync {
    /// The scalar the kernel's match-line accumulators fold in.
    type Acc: PlaneScalar;

    /// Rows in the compiled snapshot.
    fn n_rows(&self) -> usize;

    /// Queries per grouped batch block (cache-residency sizing).
    fn block_len(&self) -> usize;

    /// Validates one query against the snapshot's geometry.
    fn check_query(&self, query: &[u8]) -> Result<()>;

    /// Accumulates a block of (validated) queries into `acc`, laid out
    /// query-major (`acc[q * n_rows + row]`), folding each row's
    /// conductances in ascending column order. `aux` is kernel-private
    /// reusable scratch: only the portable codes path uses it, for its
    /// level-expansion panel; the AVX2 codes loop and the plane kernels
    /// ignore it.
    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [Self::Acc], aux: &mut Vec<Self::Acc>);

    /// Thread-gating cost of one query against this kernel, in
    /// plane-step units ([`par::PAR_CHUNK_WORK`]'s currency) — cheaper
    /// kernels report less work per cell so they fork later.
    fn batch_work_per_query(&self) -> usize;
}

impl<S: PlaneScalar> BlockKernel for CompiledMcam<S> {
    type Acc = S;

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn block_len(&self) -> usize {
        // Inherent method: the cache-residency formula above.
        CompiledMcam::block_len(self)
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        CompiledMcam::check_query(self, query)
    }

    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [S], _aux: &mut Vec<S>) {
        CompiledMcam::accumulate_block(self, queries, acc);
    }

    fn batch_work_per_query(&self) -> usize {
        self.n_rows * self.word_len
    }
}

/// A shared plan runs exactly like the plan it points to (what lets the
/// banked drivers sweep the cache's `Arc`-held per-bank plans).
impl<K: BlockKernel + Send> BlockKernel for Arc<K> {
    type Acc = K::Acc;

    fn n_rows(&self) -> usize {
        K::n_rows(self)
    }

    fn block_len(&self) -> usize {
        K::block_len(self)
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        K::check_query(self, query)
    }

    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [K::Acc], aux: &mut Vec<K::Acc>) {
        K::accumulate_block(self, queries, acc, aux);
    }

    fn batch_work_per_query(&self) -> usize {
        K::batch_work_per_query(self)
    }
}

/// Splits `queries` into one contiguous group per earned worker.
fn kernel_query_groups<'q, 'a, K: BlockKernel>(
    kernel: &K,
    queries: &'q [&'a [u8]],
    n_threads: usize,
) -> (Vec<&'q [&'a [u8]]>, usize) {
    let threads = par::batch_threads(queries.len(), kernel.batch_work_per_query(), n_threads);
    let group = queries.len().div_ceil(threads).max(1);
    (queries.chunks(group).collect(), threads)
}

/// The single batched orchestration loop every flat entry point runs
/// on: validate, split into per-worker groups, accumulate block by
/// block on reusable scratch, and hand each query's finished row
/// conductances (plus the top-k scratch) to `finalize` in query order.
fn kernel_batch_driver<K: BlockKernel, R, F>(
    kernel: &K,
    queries: &[&[u8]],
    n_threads: usize,
    finalize: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(&[K::Acc], &mut BinaryHeap<(TotalF64, usize)>, &mut Vec<(TotalF64, usize)>) -> R + Sync,
{
    for q in queries {
        kernel.check_query(q)?;
    }
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let n = kernel.n_rows();
    let (groups, threads) = kernel_query_groups(kernel, queries, n_threads);
    let per_group = par::par_map(&groups, threads, |_, group| {
        let mut scratch = BatchScratch::<K::Acc>::new();
        let mut results = Vec::with_capacity(group.len());
        for block in group.chunks(kernel.block_len()) {
            let need = block.len() * n;
            let BatchScratch {
                acc,
                aux,
                heap,
                sorted,
            } = &mut scratch;
            if acc.len() < need {
                acc.resize(need, K::Acc::ZERO);
            }
            kernel.accumulate_block(block, &mut acc[..need], aux);
            for qi in 0..block.len() {
                results.push(finalize(&acc[qi * n..(qi + 1) * n], heap, sorted));
            }
        }
        results
    });
    Ok(per_group.into_iter().flatten().collect())
}

/// Generic batched full-outcome driver (see [`Plan::search_batch`] for
/// the caller-facing contract).
fn kernel_search_batch<K: BlockKernel>(
    kernel: &K,
    queries: &[&[u8]],
    n_threads: usize,
) -> Result<Vec<SearchOutcome>> {
    kernel_batch_driver(kernel, queries, n_threads, |rows, _, _| {
        SearchOutcome::from_conductances(rows.iter().map(|g| g.to_f64()).collect())
    })
}

/// Generic batched winners driver (see [`Plan::search_batch_winners`]).
fn kernel_search_batch_winners<K: BlockKernel>(
    kernel: &K,
    queries: &[&[u8]],
    n_threads: usize,
) -> Result<Vec<(usize, f64)>> {
    kernel_batch_driver(kernel, queries, n_threads, |rows, _, _| {
        let (row, g) = argmin(rows);
        (row, g.to_f64())
    })
}

/// Generic batched top-k driver (see [`Plan::search_batch_top_k`]).
fn kernel_search_batch_top_k<K: BlockKernel>(
    kernel: &K,
    queries: &[&[u8]],
    k: usize,
    n_threads: usize,
) -> Result<Vec<Vec<(usize, f64)>>> {
    kernel_batch_driver(kernel, queries, n_threads, |rows, heap, sorted| {
        let mut top = Vec::new();
        select_top_k(rows, k, heap, sorted, &mut top);
        top
    })
}

impl CompiledMcam<f64> {
    /// Executes one query over all rows, sharding row ranges across up
    /// to `n_threads` workers (exactly as asked — callers that want
    /// work-proportional thread selection use [`search`](Self::search),
    /// which gates on [`par::threads_for`]), and writes per-row total
    /// conductances into `out`.
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] / [`CoreError::LevelOutOfRange`]
    /// for malformed queries, or [`CoreError::DimensionMismatch`] if
    /// `out` is not exactly `n_rows` long.
    pub fn search_into(&self, query: &[u8], n_threads: usize, out: &mut [f64]) -> Result<()> {
        self.check_query(query)?;
        if out.len() != self.n_rows {
            return Err(CoreError::DimensionMismatch {
                expected: self.n_rows,
                actual: out.len(),
            });
        }
        self.accumulate_sharded(query, n_threads, out);
        Ok(())
    }
}

/// A packed-code query plan: the array as byte-packed level codes plus
/// the shared conductance LUT in `f32` — the lowest-bandwidth execution
/// image (see the [module-level "Codes mode"](self#codes-mode)).
///
/// Layout: `codes[column * n_rows + row] = stored_level` (column-major
/// with rows contiguous, the same orientation as the plane plans), and
/// `lut[input * stride + state]` with `stride` padded to a power of two
/// so the gather index `code & (stride - 1)` provably stays in bounds —
/// the inner loop carries no bound check.
///
/// Only shared-LUT arrays can compile to codes under the conductance
/// metric; the plan cache serves per-cell (variation) arrays from the
/// `f32` plane plan instead, transparently, via [`CodesDispatch`].
///
/// # Examples
///
/// ```
/// use femcam_core::{ConductanceLut, LevelLadder, McamArray, Plan, Precision};
/// use femcam_device::FefetModel;
///
/// # fn main() -> femcam_core::Result<()> {
/// let ladder = LevelLadder::new(3)?;
/// let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
/// let mut array = McamArray::new(ladder, lut, 4);
/// array.store(&[0, 3, 7, 1])?;
/// array.store(&[5, 5, 5, 5])?;
/// array.store(&[2, 6, 0, 4])?;
/// let codes = array.plan(Precision::Codes)?;
/// let f32_plan = array.plan(Precision::F32)?;
/// assert!(matches!(&codes, Plan::Codes(dispatch) if dispatch.is_packed()));
/// // Bit-identical to the f32 plane plan, at a fraction of the bytes.
/// assert_eq!(
///     codes.search(&[0, 3, 7, 1])?.conductances(),
///     f32_plan.search(&[0, 3, 7, 1])?.conductances(),
/// );
/// assert!(codes.plan_bytes() < f32_plan.plan_bytes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCodes {
    n_rows: usize,
    word_len: usize,
    n_levels: usize,
    /// The distance semantics `lut` encodes (and, for
    /// [`Metric::Linf`], the max fold the gather loops run).
    metric: Metric,
    /// Power-of-two row stride of `lut`; `stride - 1` is the gather
    /// mask.
    lut_stride: usize,
    /// `[column][row]`, rows contiguous; one byte per cell.
    codes: Vec<u8>,
    /// `[input][state]` per-cell values, rounded to `f32` exactly like
    /// the `f32` planes; rows padded to `lut_stride`.
    lut: Vec<f32>,
}

impl CompiledCodes {
    /// Compiles the array's current contents into a packed-code plan
    /// whose LUT encodes `metric`: the shared device LUT for
    /// [`Metric::McamConductance`], a synthesized level-space distance
    /// table otherwise. Synthesized metrics are digital — they read
    /// stored level codes only — so they pack even on per-cell
    /// (variation) arrays.
    ///
    /// Costs one byte write per stored cell plus an
    /// `n_levels × n_levels` LUT round-trip — about one scalar query's
    /// work, so even a single query amortizes it
    /// ([`CODES_COMPILE_THRESHOLD`]).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored.
    /// * [`CoreError::PerCellBank`] for [`Metric::McamConductance`] on
    ///   an array realizing per-cell conductances (device variation) —
    ///   the cache dispatches those to the `f32` planes instead.
    pub(crate) fn compile(array: &McamArray, metric: Metric) -> Result<Self> {
        if array.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        if metric == Metric::McamConductance && array.has_per_cell_bank() {
            return Err(CoreError::PerCellBank);
        }
        let n_rows = array.n_rows();
        let word_len = array.word_len();
        let n_levels = array.ladder().n_levels();
        // Rows padded to at least 8 entries so a whole row is one
        // 8-lane vector load for the in-register gather fast path.
        let lut_stride = n_levels.next_power_of_two().max(8);
        let mut lut = vec![0.0f32; n_levels * lut_stride];
        for input in 0..n_levels as u8 {
            for state in 0..n_levels as u8 {
                // The exact f32 rounding the f32 planes hold — the
                // bit-identity contract hinges on this.
                lut[input as usize * lut_stride + state as usize] = match metric {
                    Metric::McamConductance => array.lut().get(input, state) as f32,
                    _ => metric.level_distance(input, state) as f32,
                };
            }
        }
        let mut codes = vec![0u8; word_len * n_rows];
        for r in 0..n_rows {
            for (c, &state) in array.row(r).iter().enumerate() {
                codes[c * n_rows + r] = state;
            }
        }
        Ok(CompiledCodes {
            n_rows,
            word_len,
            n_levels,
            metric,
            lut_stride,
            codes,
            lut,
        })
    }

    /// Rows in the compiled snapshot.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Cells per word.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Input/state levels per cell.
    #[must_use]
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// The precision tag of this plan ([`Precision::Codes`]).
    #[must_use]
    pub fn precision(&self) -> Precision {
        Precision::Codes
    }

    /// The metric this plan was compiled for.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Resident bytes of this plan: the packed codes plus the `f32`
    /// LUT — independent of `n_levels` per cell, ≈ 64× below the `f64`
    /// planes on the 3-bit ladder.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        std::mem::size_of_val(self.codes.as_slice()) + std::mem::size_of_val(self.lut.as_slice())
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        validate_query(self.word_len, self.n_levels, query)
    }

    /// Rows per cache panel: sized so the whole per-tile expansion slab
    /// (`word_len × n_levels × tile` f32) stays L2-resident while it
    /// serves every query in the block.
    fn row_tile(&self) -> usize {
        (CODES_EXPAND_BUDGET_BYTES
            / (std::mem::size_of::<f32>() * self.lut_stride * self.word_len.max(1)))
        .clamp(32, ROW_TILE_BYTES / std::mem::size_of::<f32>())
        .min(self.n_rows)
        .max(1)
    }

    /// Queries per grouped batch block. Much larger than the plane
    /// kernel's blocks on purpose: the per-tile expansion slab is
    /// rebuilt once per block, so reuse (≈ `block_len / n_levels` adds
    /// per expanded cell) is what pays for the gather. The AVX2 loop
    /// has no per-block setup; for it the block only sizes the
    /// accumulator panel.
    fn block_len(&self) -> usize {
        (ACC_BUDGET_BYTES / (self.row_tile() * std::mem::size_of::<f32>()).max(1)).clamp(1, 256)
    }

    /// Whether the in-register gather fast path serves this plan on
    /// this machine: every (padded) LUT row fits one 8-lane vector
    /// register, and the CPU can permute by variable lane index
    /// (AVX2). Ladders up to 3 bits — the paper's headline
    /// configuration — qualify on any AVX2 x86-64.
    fn simd_eligible(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            self.lut_stride == 8 && std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The AVX2 serve loop, shift-and-permute. The query level's whole
    /// LUT row lives in one vector register. One 256-bit load brings in
    /// 32 stored codes, so dword lane `j` holds rows `4j..4j+3`, one
    /// per byte. `vpermps` reads only bits [2:0] of each index lane:
    /// the raw vector gathers rows `4j`, and the vector shifted right by
    /// 8, 16 and 24 bits gathers rows `4j+1`, `4j+2` and `4j+3`. No
    /// byte-to-dword widen runs, so per 32 cells the loop costs one
    /// load, three shifts (off the shuffle port), four permutes and
    /// four folds, at any batch size. Running sums for
    /// [`CODES_GROUP_ROWS`] rows stay in registers across the whole
    /// column sweep ([`codes_group`]); a group of fewer rows than that
    /// at the end runs the same loop on zero-padded loads.
    ///
    /// Per row the fold is the same ascending-column sequence of `f32`
    /// adds over the same LUT roundings as the scalar path, so results
    /// stay bit-identical to the `f32` plane kernel.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `lut_stride == 8`
    /// ([`simd_eligible`](Self::simd_eligible)), `query` is validated
    /// (`word_len` levels, each `< n_levels`), and
    /// `row_start + out.len() <= n_rows`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: inside the body, every raw access is in bounds under the
    // caller contract: `lut_stride == 8` pads each level's LUT row to
    // exactly the 8 lanes one `_mm256_loadu_ps` reads, and
    // `row_start + out.len() <= n_rows` keeps each window of rows
    // `s..s + 64` (full groups) or `s..s + rows` (padded loads, which
    // copy exactly `rows` bytes) inside every column `c` of the
    // column-major codes slab and inside `out`. All vector loads and
    // stores are unaligned, so validity is the only pointer obligation.
    unsafe fn accumulate_query_avx2<const MAX: bool>(
        &self,
        query: &[u8],
        row_start: usize,
        out: &mut [f32],
    ) {
        use std::arch::x86_64::*;
        let mut tables = [_mm256_setzero_ps(); 8];
        for (level, table) in tables.iter_mut().enumerate().take(self.n_levels) {
            *table = _mm256_loadu_ps(self.lut.as_ptr().add(level * 8));
        }
        let n = self.n_rows;
        let len = out.len();
        let codes = self.codes.as_ptr().add(row_start);
        let mut s = 0;
        while s + CODES_GROUP_ROWS <= len {
            let group = codes_group::<MAX, { CODES_GROUP_ROWS / 32 }>(&tables, query, |c, h| {
                _mm256_loadu_si256(codes.add(c * n + s + 32 * h).cast())
            });
            for (h, ordered) in group.iter().enumerate() {
                for (m, &o) in ordered.iter().enumerate() {
                    _mm256_storeu_ps(out.as_mut_ptr().add(s + 32 * h + 8 * m), o);
                }
            }
            s += CODES_GROUP_ROWS;
        }
        // The last rows (fewer than a group), 32 at a time through
        // zero-padded loads.
        while s < len {
            let rows = (len - s).min(32);
            let [ordered] = codes_group::<MAX, 1>(&tables, query, |c, _| {
                let mut buf = [0u8; 32];
                std::ptr::copy_nonoverlapping(codes.add(c * n + s), buf.as_mut_ptr(), rows);
                _mm256_loadu_si256(buf.as_ptr().cast())
            });
            let mut sums = [0.0f32; 32];
            for (m, &o) in ordered.iter().enumerate() {
                _mm256_storeu_ps(sums.as_mut_ptr().add(8 * m), o);
            }
            out[s..s + rows].copy_from_slice(&sums[..rows]);
            s += rows;
        }
    }

    /// The block face of the AVX2 fast path: per L1-sized row tile,
    /// the per-query loop ([`accumulate_query_avx2`](Self::accumulate_query_avx2))
    /// for each query in the block, so every query after the first
    /// reads the tile's codes from L1.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`accumulate_query_avx2`](Self::accumulate_query_avx2) for every
    /// query; `acc` must hold `queries.len() * n_rows` scalars.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: each call passes a validated query and a row window
    // `t0..t1` with `t1 <= n_rows`, the per-query contract.
    unsafe fn accumulate_block_avx2<const MAX: bool>(&self, queries: &[&[u8]], acc: &mut [f32]) {
        let n = self.n_rows;
        // Rows per tile: the tile's codes (`word_len × tile` bytes)
        // stay L1-resident while every query in the block reads them.
        let tile = (ROW_TILE_BYTES / self.word_len.max(1)).max(CODES_GROUP_ROWS) / CODES_GROUP_ROWS
            * CODES_GROUP_ROWS;
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            for (qi, q) in queries.iter().enumerate() {
                self.accumulate_query_avx2::<MAX>(q, t0, &mut acc[qi * n + t0..qi * n + t1]);
            }
            t0 = t1;
        }
    }

    /// The LUT-gather inner loop over rows `row_start..row_start +
    /// out.len()`: per column, the query level selects one LUT row (the
    /// gather table) and every stored code gathers through it —
    /// ascending column order, `f32` accumulation, so the fold is
    /// bit-identical to the `f32` plane kernel's.
    fn accumulate_rows(&self, query: &[u8], row_start: usize, out: &mut [f32]) {
        if self.metric.is_max_fold() {
            self.accumulate_rows_fold::<true>(query, row_start, out);
        } else {
            self.accumulate_rows_fold::<false>(query, row_start, out);
        }
    }

    fn accumulate_rows_fold<const MAX: bool>(
        &self,
        query: &[u8],
        row_start: usize,
        out: &mut [f32],
    ) {
        if self.simd_eligible() {
            // SAFETY: eligibility checked AVX2 + 8-entry LUT rows;
            // callers pass validated queries and in-range row windows.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                self.accumulate_query_avx2::<MAX>(query, row_start, out);
            }
            return;
        }
        out.fill(0.0);
        let mask = self.lut_stride - 1;
        for (c, &q) in query.iter().enumerate() {
            let column = &self.codes[c * self.n_rows + row_start..][..out.len()];
            let table = &self.lut[q as usize * self.lut_stride..][..self.lut_stride];
            for (acc, &code) in out.iter_mut().zip(column) {
                // `code & mask < table.len()` by construction: the
                // bound check vanishes.
                *acc = acc.fold::<MAX>(table[code as usize & mask]);
            }
        }
    }

    /// The block kernel. With AVX2 and 8-entry LUT rows it runs the
    /// shift-and-permute loop per query over L1-sized row tiles
    /// ([`accumulate_block_avx2`](Self::accumulate_block_avx2)), and
    /// `aux` stays untouched. Otherwise it is the portable tiled
    /// two-phase kernel. Per row panel:
    ///
    /// 1. **Expand** — for every column, each *distinct* level the
    ///    block's queries drive there gathers the codes column through
    ///    its LUT row once, into an L2-resident `f32` micro-plane in
    ///    the `aux` slab (`aux[column][level][row]`). This is the only
    ///    gather, and it runs once per `(column, distinct level)` —
    ///    amortized across every query in the block that shares the
    ///    level, not repeated per query.
    /// 2. **Serve** — each query then sweeps its columns in ascending
    ///    order, adding the matching micro-planes into its accumulator
    ///    tile with unit-stride SIMD-friendly loops. The accumulator
    ///    tile stays L1-hot across the whole column sweep (this loop
    ///    order — query outer, column inner — is what the plane kernel
    ///    cannot afford, because its per-level planes would thrash; the
    ///    compact slab makes it cheap).
    ///
    /// Rows advance in panels, columns ascend per query, and each cell
    /// contributes exactly one `f32` add of exactly the LUT's `f32`
    /// rounding — per-row folds identical to
    /// [`accumulate_rows`](Self::accumulate_rows) and bit-identical to
    /// the `f32` plane kernel.
    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [f32], aux: &mut Vec<f32>) {
        if self.metric.is_max_fold() {
            self.accumulate_block_fold::<true>(queries, acc, aux);
        } else {
            self.accumulate_block_fold::<false>(queries, acc, aux);
        }
    }

    fn accumulate_block_fold<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        acc: &mut [f32],
        aux: &mut Vec<f32>,
    ) {
        let n = self.n_rows;
        debug_assert!(acc.len() >= queries.len() * n);
        if self.simd_eligible() {
            // In-register shift-and-permute gather, tiled so the
            // queries share each row tile — see accumulate_block_avx2.
            #[cfg(target_arch = "x86_64")]
            // SAFETY: eligibility checked AVX2 + 8-entry LUT rows; the
            // drivers validate queries before any work runs.
            unsafe {
                self.accumulate_block_avx2::<MAX>(queries, acc);
            }
            return;
        }
        acc[..queries.len() * n].fill(0.0);
        let mask = self.lut_stride - 1;
        let tile = self.row_tile();
        if aux.len() < self.word_len * self.lut_stride * tile {
            aux.resize(self.word_len * self.lut_stride * tile, 0.0);
        }
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            let tlen = t1 - t0;
            // Phase 1: expand the (column, level) micro-planes the
            // block needs into the slab.
            for c in 0..self.word_len {
                let column = &self.codes[c * n + t0..c * n + t1];
                let slab = &mut aux[c * self.lut_stride * tlen..][..self.lut_stride * tlen];
                let mut seen = [false; 256];
                for q in queries {
                    let level = q[c] as usize;
                    if seen[level] {
                        continue;
                    }
                    seen[level] = true;
                    let table = &self.lut[level * self.lut_stride..][..self.lut_stride];
                    let panel = &mut slab[level * tlen..(level + 1) * tlen];
                    for (g, &code) in panel.iter_mut().zip(column) {
                        // `code & mask < table.len()` by construction:
                        // the bound check vanishes.
                        *g = table[code as usize & mask];
                    }
                }
            }
            // Phase 2: per query, sweep columns from the hot slab in
            // register-blocked row sub-tiles — the running sums for
            // SERVE_SUB rows live in a fixed-size local the compiler
            // keeps in vector registers across the whole column sweep,
            // so each cell costs one panel load and one add (no
            // accumulator load/store per column).
            for (qi, q) in queries.iter().enumerate() {
                let out = &mut acc[qi * n + t0..qi * n + t1];
                let mut s0 = 0;
                while s0 < tlen {
                    if tlen - s0 >= SERVE_SUB {
                        let mut local = [0.0f32; SERVE_SUB];
                        for (c, &level) in q.iter().enumerate() {
                            let panel = &aux[(c * self.lut_stride + level as usize) * tlen + s0..]
                                [..SERVE_SUB];
                            for (l, &g) in local.iter_mut().zip(panel) {
                                *l = l.fold::<MAX>(g);
                            }
                        }
                        out[s0..s0 + SERVE_SUB].copy_from_slice(&local);
                        s0 += SERVE_SUB;
                    } else {
                        for (c, &level) in q.iter().enumerate() {
                            let panel = &aux[(c * self.lut_stride + level as usize) * tlen + s0..]
                                [..tlen - s0];
                            for (a, &g) in out[s0..].iter_mut().zip(panel) {
                                *a = a.fold::<MAX>(g);
                            }
                        }
                        s0 = tlen;
                    }
                }
            }
            t0 = t1;
        }
    }

    /// Row-sharded single-query accumulation (same [`shard_rows`]
    /// policy as the plane path).
    fn accumulate_sharded(&self, query: &[u8], n_threads: usize, out: &mut [f32]) {
        shard_rows(self.n_rows, n_threads, out, |row_start, slice| {
            self.accumulate_rows(query, row_start, slice);
        });
    }

    /// Executes one query and returns the full per-row outcome —
    /// bit-identical to `CompiledMcam::<f32>` on the same shared-LUT
    /// contents. Rows shard across workers when the (discounted — see
    /// [`par::codes_work`]) workload justifies forking.
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] / [`CoreError::LevelOutOfRange`]
    /// for malformed queries.
    pub fn search(&self, query: &[u8]) -> Result<SearchOutcome> {
        self.check_query(query)?;
        let threads = par::threads_for(par::codes_work(self.n_rows * self.word_len));
        let mut out = vec![0.0f32; self.n_rows];
        self.accumulate_sharded(query, threads, &mut out);
        Ok(SearchOutcome::from_conductances(
            out.iter().map(|&g| f64::from(g)).collect(),
        ))
    }
}

impl BlockKernel for CompiledCodes {
    type Acc = f32;

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn block_len(&self) -> usize {
        CompiledCodes::block_len(self)
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        CompiledCodes::check_query(self, query)
    }

    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [f32], aux: &mut Vec<f32>) {
        CompiledCodes::accumulate_block(self, queries, acc, aux);
    }

    fn batch_work_per_query(&self) -> usize {
        par::codes_work(self.n_rows * self.word_len)
    }
}

/// The engine actually serving a codes-mode request: the packed-code
/// plan on shared-LUT arrays, or the transparent `f32` plane fallback
/// on per-cell (variation) arrays — the dispatch half of
/// [`Precision::Codes`] (see the
/// [module-level "Codes mode"](self#codes-mode)). Handed out as
/// [`Plan::Codes`] by [`McamArray::plan`].
#[derive(Debug, Clone)]
pub enum CodesDispatch {
    /// Shared-LUT array: the LUT-gather kernel (bit-identical to `f32`
    /// planes at a fraction of the bytes).
    Packed(Arc<CompiledCodes>),
    /// Per-cell (variation) array: the `f32` plane kernel — per-cell
    /// conductances cannot share a LUT.
    Planes(Arc<CompiledMcam<f32>>),
}

impl CodesDispatch {
    /// `true` when the packed-code kernel serves this array (no
    /// variation fallback).
    #[must_use]
    pub fn is_packed(&self) -> bool {
        matches!(self, CodesDispatch::Packed(_))
    }

    /// Resident bytes of the serving plan.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => c.plan_bytes(),
            CodesDispatch::Planes(p) => p.plan_bytes(),
        }
    }
}

impl BlockKernel for CodesDispatch {
    type Acc = f32;

    fn n_rows(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => BlockKernel::n_rows(c),
            CodesDispatch::Planes(p) => BlockKernel::n_rows(p),
        }
    }

    fn block_len(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => BlockKernel::block_len(c),
            CodesDispatch::Planes(p) => BlockKernel::block_len(p),
        }
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        match self {
            CodesDispatch::Packed(c) => BlockKernel::check_query(c, query),
            CodesDispatch::Planes(p) => BlockKernel::check_query(p, query),
        }
    }

    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [f32], aux: &mut Vec<f32>) {
        match self {
            CodesDispatch::Packed(c) => BlockKernel::accumulate_block(c, queries, acc, aux),
            CodesDispatch::Planes(p) => BlockKernel::accumulate_block(p, queries, acc, aux),
        }
    }

    fn batch_work_per_query(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => BlockKernel::batch_work_per_query(c),
            CodesDispatch::Planes(p) => BlockKernel::batch_work_per_query(p),
        }
    }
}

/// The cached compiled plan one [`SearchSpec`] executes on, as
/// [`McamArray::plan`] hands it out: the `f64` or `f32` plane plan, or
/// the codes-mode [`CodesDispatch`]. Every variant carries the spec's
/// metric. The batch methods run the shared tiled drivers at an
/// explicit worker budget (`n_threads` is an upper bound: a batch
/// forks only as many workers as its work earns, [`par::batch_threads`]),
/// with results in query order and bit-identical at any budget; the
/// first malformed query (in input order) fails the batch before any
/// work runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// [`Precision::F64`]: the bit-identical reference planes.
    F64(Arc<CompiledMcam<f64>>),
    /// [`Precision::F32`]: the opt-in fast planes.
    F32(Arc<CompiledMcam<f32>>),
    /// [`Precision::Codes`]: packed codes, or the `f32` plane fallback.
    Codes(CodesDispatch),
}

impl Plan {
    /// Executes one query and returns the full per-row outcome; rows
    /// shard across workers when the workload justifies forking.
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] / [`CoreError::LevelOutOfRange`]
    /// for malformed queries.
    pub fn search(&self, query: &[u8]) -> Result<SearchOutcome> {
        match self {
            Plan::F64(p) => p.search(query),
            Plan::F32(p) | Plan::Codes(CodesDispatch::Planes(p)) => p.search(query),
            Plan::Codes(CodesDispatch::Packed(c)) => c.search(query),
        }
    }

    /// Every query's full per-row outcome.
    ///
    /// # Errors
    ///
    /// Same per-query conditions as [`search`](Self::search).
    pub fn search_batch(&self, queries: &[&[u8]], n_threads: usize) -> Result<Vec<SearchOutcome>> {
        match self {
            Plan::F64(p) => kernel_search_batch(p, queries, n_threads),
            Plan::F32(p) => kernel_search_batch(p, queries, n_threads),
            Plan::Codes(d) => kernel_search_batch(d, queries, n_threads),
        }
    }

    /// Each query's nearest row as `(row, score)` — the argmin runs on
    /// the worker's scratch, so no per-row vector is materialized.
    ///
    /// # Errors
    ///
    /// Same per-query conditions as [`search`](Self::search).
    pub fn search_batch_winners(
        &self,
        queries: &[&[u8]],
        n_threads: usize,
    ) -> Result<Vec<(usize, f64)>> {
        match self {
            Plan::F64(p) => kernel_search_batch_winners(p, queries, n_threads),
            Plan::F32(p) => kernel_search_batch_winners(p, queries, n_threads),
            Plan::Codes(d) => kernel_search_batch_winners(d, queries, n_threads),
        }
    }

    /// Each query's `k` nearest rows as `(row, score)`, nearest first,
    /// selected by a bounded heap on the worker's reusable scratch.
    ///
    /// # Errors
    ///
    /// Same per-query conditions as [`search`](Self::search).
    pub fn search_batch_top_k(
        &self,
        queries: &[&[u8]],
        k: usize,
        n_threads: usize,
    ) -> Result<Vec<Vec<(usize, f64)>>> {
        match self {
            Plan::F64(p) => kernel_search_batch_top_k(p, queries, k, n_threads),
            Plan::F32(p) => kernel_search_batch_top_k(p, queries, k, n_threads),
            Plan::Codes(d) => kernel_search_batch_top_k(d, queries, k, n_threads),
        }
    }

    /// Resident bytes of this plan.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        match self {
            Plan::F64(p) => p.plan_bytes(),
            Plan::F32(p) => p.plan_bytes(),
            Plan::Codes(d) => d.plan_bytes(),
        }
    }
}

/// Index and value of the smallest scalar; ties keep the lowest index
/// (identical to [`SearchOutcome::best_row`]'s first-minimum argmin).
fn argmin<S: PlaneScalar>(scores: &[S]) -> (usize, S) {
    let mut best = 0;
    let mut best_g = scores[0];
    for (i, &g) in scores.iter().enumerate().skip(1) {
        if g < best_g {
            best = i;
            best_g = g;
        }
    }
    (best, best_g)
}

/// Batched hierarchical winner-take-all over per-bank kernels:
/// contiguous query groups shard across workers; each worker sweeps
/// banks in ascending order for its group with one reusable scratch,
/// merging per-query winners in bank order as it goes.
///
/// `bases[i]` is the global base row of `plans[i]` (the module-level
/// ["Bank-mask contract"](self#bank-mask-contract)). Thread gating sums
/// each bank's own work estimate, so mixed dispatches (packed codes
/// banks next to plane-fallback banks) are costed by what each bank
/// actually executes.
pub(crate) fn banked_winner_batch_kernel<K: BlockKernel>(
    plans: &[K],
    bases: &[usize],
    queries: &[&[u8]],
    n_threads: usize,
) -> Result<Vec<(usize, f64)>> {
    debug_assert_eq!(plans.len(), bases.len(), "one base per bank kernel");
    // femcam::allow(no_panic): callers pass one plan per bank and banked
    // memories have >= 1 bank.
    let first = plans.first().expect("at least one bank");
    for q in queries {
        first.check_query(q)?;
    }
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let work: usize = plans.iter().map(BlockKernel::batch_work_per_query).sum();
    let threads = par::batch_threads(queries.len(), work, n_threads);
    let group = queries.len().div_ceil(threads).max(1);
    let groups: Vec<&[&[u8]]> = queries.chunks(group).collect();
    let per_group = par::par_map(&groups, threads, |_, group| {
        let mut scratch = BatchScratch::<K::Acc>::new();
        let mut best: Vec<Option<(usize, f64)>> = vec![None; group.len()];
        for (plan, &base) in plans.iter().zip(bases) {
            let n = plan.n_rows();
            let mut done = 0;
            for block in group.chunks(plan.block_len()) {
                let need = block.len() * n;
                let BatchScratch { acc, aux, .. } = &mut scratch;
                if acc.len() < need {
                    acc.resize(need, K::Acc::ZERO);
                }
                plan.accumulate_block(block, &mut acc[..need], aux);
                for qi in 0..block.len() {
                    let rows = &acc[qi * n..(qi + 1) * n];
                    let (local, g) = argmin(rows);
                    let g = g.to_f64();
                    let global = base + local;
                    let slot = &mut best[done + qi];
                    if slot.is_none_or(|(_, bg)| g < bg) {
                        *slot = Some((global, g));
                    }
                }
                done += block.len();
            }
        }
        best.into_iter()
            // femcam::allow(no_panic): every query saw every bank, so each
            // slot was filled.
            .map(|b| b.expect("at least one bank per query"))
            .collect::<Vec<_>>()
    });
    Ok(per_group.into_iter().flatten().collect())
}

/// `f64` ordered by [`f64::total_cmp`] for heap membership.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Bounded-heap top-k selection into `out` as ascending
/// `(index, score)` pairs, reusing the caller's heap and sort scratch.
/// Ties on score resolve to the lower index, matching a stable
/// ascending sort; `k >= n` returns all entries fully sorted.
fn select_top_k<S: PlaneScalar>(
    scores: &[S],
    k: usize,
    heap: &mut BinaryHeap<(TotalF64, usize)>,
    sorted: &mut Vec<(TotalF64, usize)>,
    out: &mut Vec<(usize, f64)>,
) {
    out.clear();
    if k == 0 || scores.is_empty() {
        return;
    }
    let k = k.min(scores.len());
    heap.clear();
    for (i, &s) in scores.iter().enumerate() {
        let item = (TotalF64(s.to_f64()), i);
        if heap.len() < k {
            heap.push(item);
        } else if let Some(&worst) = heap.peek() {
            if item < worst {
                heap.pop();
                heap.push(item);
            }
        }
    }
    sorted.clear();
    sorted.extend(heap.drain());
    sorted.sort_unstable();
    out.extend(sorted.iter().map(|&(g, i)| (i, g.0)));
}

/// Indices of the `k` smallest scores, ascending by `(score, index)` —
/// a bounded max-heap selection in `O(n log k)` replacing the previous
/// full `O(n log n)` sorts on the hot path.
///
/// Ties on score resolve to the lower index, matching a stable
/// ascending sort; `k >= n` returns all indices fully sorted.
#[must_use]
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut heap = BinaryHeap::new();
    let mut sorted = Vec::new();
    let mut out = Vec::new();
    select_top_k(scores, k, &mut heap, &mut sorted, &mut out);
    out.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{McamArrayBuilder, VariationSpec};
    use crate::levels::LevelLadder;
    use crate::lut::ConductanceLut;
    use femcam_device::FefetModel;

    fn array_with_rows(word_len: usize, rows: &[Vec<u8>]) -> McamArray {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut a = McamArray::new(ladder, lut, word_len);
        for r in rows {
            a.store(r).unwrap();
        }
        a
    }

    fn f64_plan(a: &McamArray) -> Arc<CompiledMcam<f64>> {
        match a.plan(Precision::F64).unwrap() {
            Plan::F64(p) => p,
            other => panic!("f64 spec served by {other:?}"),
        }
    }

    fn f32_plan(a: &McamArray) -> Arc<CompiledMcam<f32>> {
        match a.plan(Precision::F32).unwrap() {
            Plan::F32(p) => p,
            other => panic!("f32 spec served by {other:?}"),
        }
    }

    fn codes_plan(a: &McamArray) -> CodesDispatch {
        match a.plan(Precision::Codes).unwrap() {
            Plan::Codes(d) => d,
            other => panic!("codes spec served by {other:?}"),
        }
    }

    #[test]
    fn compiled_search_is_bit_identical_to_scalar() {
        let rows: Vec<Vec<u8>> = (0..17)
            .map(|i| (0..6).map(|c| ((i * 3 + c * 5) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(6, &rows);
        let plan: CompiledMcam = CompiledMcam::compile(&a, Metric::default()).unwrap();
        for q in [[0u8, 1, 2, 3, 4, 5], [7, 7, 0, 0, 3, 3], [2, 2, 2, 2, 2, 2]] {
            let scalar = a.search(&q).unwrap();
            let compiled = plan.search(&q).unwrap();
            assert_eq!(scalar.conductances(), compiled.conductances());
        }
    }

    #[test]
    fn compiled_search_matches_scalar_under_variation() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let mut a = McamArrayBuilder::new(ladder, lut)
            .word_len(5)
            .variation(
                VariationSpec {
                    sigma_v: 0.06,
                    seed: 17,
                },
                model,
            )
            .build();
        for i in 0..9u8 {
            a.store(&[i % 8, (i + 1) % 8, (i + 2) % 8, (i + 3) % 8, (i + 5) % 8])
                .unwrap();
        }
        let plan: CompiledMcam = CompiledMcam::compile(&a, Metric::default()).unwrap();
        let q = [4u8, 0, 6, 2, 7];
        assert_eq!(
            a.search(&q).unwrap().conductances(),
            plan.search(&q).unwrap().conductances(),
        );
    }

    #[test]
    fn compiled_plan_is_a_snapshot() {
        let mut a = array_with_rows(2, &[vec![0, 0]]);
        let plan: CompiledMcam = CompiledMcam::compile(&a, Metric::default()).unwrap();
        a.store(&[7, 7]).unwrap();
        assert_eq!(plan.n_rows(), 1);
        assert_eq!(a.n_rows(), 2);
        assert_eq!(plan.search(&[7, 7]).unwrap().conductances().len(), 1);
    }

    #[test]
    fn compiled_validation_mirrors_scalar_errors() {
        let a = array_with_rows(3, &[vec![1, 2, 3]]);
        let plan: CompiledMcam = CompiledMcam::compile(&a, Metric::default()).unwrap();
        assert!(matches!(
            plan.search(&[1, 2]),
            Err(CoreError::WordLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            plan.search(&[1, 2, 9]),
            Err(CoreError::LevelOutOfRange { level: 9, max: 7 })
        ));
        let empty = McamArray::new(
            LevelLadder::new(3).unwrap(),
            ConductanceLut::from_device(&FefetModel::default(), &LevelLadder::new(3).unwrap()),
            3,
        );
        assert!(matches!(
            CompiledMcam::<f64>::compile(&empty, Metric::default()),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn row_sharded_search_matches_inline_search() {
        let rows: Vec<Vec<u8>> = (0..53)
            .map(|i| (0..4).map(|c| ((i * 7 + c) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(4, &rows);
        let plan: CompiledMcam = CompiledMcam::compile(&a, Metric::default()).unwrap();
        let q = [3u8, 1, 4, 1];
        let mut inline = vec![0.0; plan.n_rows()];
        plan.search_into(&q, 1, &mut inline).unwrap();
        for threads in [2, 3, 7, 64] {
            let mut sharded = vec![0.0; plan.n_rows()];
            plan.search_into(&q, threads, &mut sharded).unwrap();
            assert_eq!(inline, sharded, "threads={threads}");
        }
        let mut wrong_len = vec![0.0; plan.n_rows() + 1];
        assert!(matches!(
            plan.search_into(&q, 1, &mut wrong_len),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn batch_results_are_in_query_order_and_first_error_wins() {
        let a = array_with_rows(2, &[vec![0, 0], vec![7, 7], vec![3, 3]]);
        let plan = a.plan(Precision::F64).unwrap();
        let queries: Vec<Vec<u8>> = vec![vec![0, 0], vec![7, 7], vec![3, 4]];
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let outcomes = plan.search_batch(&refs, 4).unwrap();
        assert_eq!(outcomes[0].best_row(), 0);
        assert_eq!(outcomes[1].best_row(), 1);
        assert_eq!(outcomes[2].best_row(), 2);
        // First malformed query in input order decides the error.
        let bad: Vec<&[u8]> = vec![&[0, 0], &[9, 9], &[1]];
        assert!(matches!(
            plan.search_batch(&bad, 4),
            Err(CoreError::LevelOutOfRange { level: 9, .. })
        ));
    }

    #[test]
    fn winners_and_top_k_agree_with_full_outcomes() {
        let rows: Vec<Vec<u8>> = (0..29)
            .map(|i| (0..5).map(|c| ((i * 5 + c * 3) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(5, &rows);
        let plan = a.plan(Precision::F64).unwrap();
        let queries: Vec<Vec<u8>> = (0..9)
            .map(|i| (0..5).map(|c| ((i * 7 + c) % 8) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let outcomes = plan.search_batch(&refs, 3).unwrap();
        let winners = plan.search_batch_winners(&refs, 3).unwrap();
        let top3 = plan.search_batch_top_k(&refs, 3, 3).unwrap();
        for ((outcome, &(row, g)), hits) in outcomes.iter().zip(&winners).zip(&top3) {
            assert_eq!(row, outcome.best_row());
            assert_eq!(g, outcome.conductance(row));
            let expect: Vec<usize> = outcome.top_k(3);
            let got: Vec<usize> = hits.iter().map(|&(r, _)| r).collect();
            assert_eq!(got, expect);
            for &(r, score) in hits {
                assert_eq!(score, outcome.conductance(r));
            }
        }
    }

    #[test]
    fn f32_plan_finds_the_same_easy_winners() {
        let rows: Vec<Vec<u8>> = (0..23)
            .map(|i| (0..6).map(|c| ((i * 3 + c * 5) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(6, &rows);
        let plan64 = CompiledMcam::<f64>::compile(&a, Metric::default()).unwrap();
        let plan32 = CompiledMcam::<f32>::compile(&a, Metric::default()).unwrap();
        assert_eq!(plan32.precision(), Precision::F32);
        for (i, row) in rows.iter().enumerate().take(8) {
            // Exact-match queries have an unambiguous winner.
            assert_eq!(plan32.search(row).unwrap().best_row(), i);
            assert_eq!(plan64.search(row).unwrap().best_row(), i);
        }
        // And f32 conductances are close to the f64 reference.
        let o64 = plan64.search(&rows[0]).unwrap();
        let o32 = plan32.search(&rows[0]).unwrap();
        for (a, b) in o64.conductances().iter().zip(o32.conductances()) {
            assert!((a - b).abs() / a < 1e-5, "f32 drifted: {a} vs {b}");
        }
    }

    #[test]
    fn plan_cache_compiles_once_and_invalidates() {
        let mut a = array_with_rows(2, &[vec![0, 0], vec![7, 7]]);
        let p1 = f64_plan(&a);
        let p2 = f64_plan(&a);
        assert!(Arc::ptr_eq(&p1, &p2), "cache must return the same plan");
        let f1 = f32_plan(&a);
        assert_eq!(f1.precision(), Precision::F32);
        a.store(&[3, 3]).unwrap();
        let p3 = f64_plan(&a);
        assert!(!Arc::ptr_eq(&p1, &p3), "store must invalidate the cache");
        assert_eq!(p3.n_rows(), 3);
        let f2 = f32_plan(&a);
        assert!(!Arc::ptr_eq(&f1, &f2));
        assert_eq!(f2.n_rows(), 3);
    }

    #[test]
    fn codes_plan_is_bit_identical_to_f32_plane() {
        let rows: Vec<Vec<u8>> = (0..37)
            .map(|i| (0..6).map(|c| ((i * 5 + c * 3) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(6, &rows);
        let CodesDispatch::Packed(packed) = codes_plan(&a) else {
            panic!("shared-LUT array must dispatch packed");
        };
        let f32_planes = f32_plan(&a);
        assert_eq!(packed.precision(), Precision::Codes);
        assert_eq!(packed.n_rows(), f32_planes.n_rows());
        assert_eq!(packed.word_len(), f32_planes.word_len());
        assert_eq!(packed.n_levels(), f32_planes.n_levels());
        let plan32 = a.plan(Precision::F32).unwrap();
        let codes = a.plan(Precision::Codes).unwrap();
        let queries: Vec<Vec<u8>> = (0..9)
            .map(|i| (0..6).map(|c| ((i * 7 + c) % 8) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for q in &refs {
            assert_eq!(
                codes.search(q).unwrap().conductances(),
                plan32.search(q).unwrap().conductances(),
                "codes single-query result drifted from f32"
            );
        }
        let o_codes = codes.search_batch(&refs, 3).unwrap();
        let o_f32 = plan32.search_batch(&refs, 3).unwrap();
        for (c, f) in o_codes.iter().zip(&o_f32) {
            assert_eq!(c.conductances(), f.conductances());
        }
        assert_eq!(
            codes.search_batch_winners(&refs, 2).unwrap(),
            plan32.search_batch_winners(&refs, 2).unwrap(),
        );
        assert_eq!(
            codes.search_batch_top_k(&refs, 4, 2).unwrap(),
            plan32.search_batch_top_k(&refs, 4, 2).unwrap(),
        );
    }

    #[test]
    fn codes_compile_rejects_variation_and_empty() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let mut varied = McamArrayBuilder::new(ladder, lut.clone())
            .word_len(4)
            .variation(
                VariationSpec {
                    sigma_v: 0.05,
                    seed: 3,
                },
                model,
            )
            .build();
        varied.store(&[1, 2, 3, 4]).unwrap();
        assert!(matches!(
            CompiledCodes::compile(&varied, Metric::default()),
            Err(CoreError::PerCellBank)
        ));
        // The cached dispatch falls back to planes instead of failing.
        assert!(!codes_plan(&varied).is_packed());
        assert_eq!(
            varied
                .plan(Precision::Codes)
                .unwrap()
                .search(&[1, 2, 3, 4])
                .unwrap()
                .conductances(),
            f32_plan(&varied)
                .search(&[1, 2, 3, 4])
                .unwrap()
                .conductances(),
        );
        let empty = McamArray::new(ladder, lut, 4);
        assert!(matches!(
            CompiledCodes::compile(&empty, Metric::default()),
            Err(CoreError::EmptyArray)
        ));
        // Validation mirrors the plane plans.
        let a = array_with_rows(3, &[vec![1, 2, 3]]);
        let codes = CompiledCodes::compile(&a, Metric::default()).unwrap();
        assert!(matches!(
            codes.search(&[1, 2]),
            Err(CoreError::WordLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            codes.search(&[1, 2, 9]),
            Err(CoreError::LevelOutOfRange { level: 9, max: 7 })
        ));
    }

    #[test]
    fn codes_plan_bytes_and_cache_slots() {
        let rows: Vec<Vec<u8>> = (0..64)
            .map(|i| (0..8).map(|c| ((i + c * 3) % 8) as u8).collect())
            .collect();
        let mut a = array_with_rows(8, &rows);
        assert_eq!(a.plan_memory_bytes().total(), 0, "cold cache holds nothing");
        let p64 = f64_plan(&a);
        let p32 = f32_plan(&a);
        let codes = codes_plan(&a);
        assert!(codes.is_packed());
        // Exact byte formulas: planes are n_levels*wl*rows scalars,
        // codes are wl*rows bytes plus the padded f32 LUT.
        assert_eq!(p64.plan_bytes(), 8 * 8 * 64 * 8);
        assert_eq!(p32.plan_bytes(), 8 * 8 * 64 * 4);
        assert_eq!(codes.plan_bytes(), 8 * 64 + 8 * 8 * 4);
        // The acceptance ratio: codes at least 16x below the f64 plan.
        assert!(p64.plan_bytes() >= 16 * codes.plan_bytes());
        let mem = a.plan_memory_bytes();
        assert_eq!(mem.f64_plane, p64.plan_bytes());
        assert_eq!(mem.f32_plane, p32.plan_bytes());
        assert_eq!(mem.codes, codes.plan_bytes());
        assert_eq!(
            mem.total(),
            p64.plan_bytes() + p32.plan_bytes() + codes.plan_bytes()
        );
        // The codes slot caches (same engine back) and invalidates on
        // store like the plane slots.
        let codes2 = codes_plan(&a);
        match (&codes, &codes2) {
            (CodesDispatch::Packed(x), CodesDispatch::Packed(y)) => {
                assert!(Arc::ptr_eq(x, y), "cache must return the same codes plan");
            }
            _ => panic!("shared-LUT array must dispatch packed"),
        }
        a.store(&rows[0].clone()).unwrap();
        assert_eq!(
            a.plan_memory_bytes().total(),
            0,
            "store must clear all slots"
        );
        assert_eq!(BlockKernel::n_rows(&codes_plan(&a)), 65);
    }

    #[test]
    fn codes_threshold_is_one_query() {
        // The documented amortization decision: compiling a code plan
        // costs about one scalar query, so the entry points compile
        // eagerly even for a lone cold-cache query.
        assert_eq!(CODES_COMPILE_THRESHOLD, 1);
        let a = array_with_rows(2, &[vec![0, 0], vec![7, 7]]);
        assert_eq!(a.plan_memory_bytes().codes, 0);
        a.search_batch_with(&[&[0, 0]], Precision::Codes).unwrap();
        assert!(
            a.plan_memory_bytes().codes > 0,
            "lone query must compile the codes plan"
        );
    }

    #[test]
    fn top_k_matches_stable_full_sort() {
        let scores = [3.0, 1.0, 2.0, 1.0, 5.0, 0.5, 2.0, 1.0];
        for k in 0..=10 {
            let mut expect: Vec<usize> = (0..scores.len()).collect();
            expect.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
            expect.truncate(k);
            assert_eq!(top_k_indices(&scores, k), expect, "k={k}");
        }
        assert!(top_k_indices(&[], 3).is_empty());
    }
}
