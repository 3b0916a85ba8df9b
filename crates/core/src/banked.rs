//! Multi-bank MCAM organization.
//!
//! Physical CAM arrays are tiled: match-line length (word width) and
//! array height (rows per bank) are bounded by RC constants and sense
//! margins, so a realistic deployment splits a large memory across
//! fixed-size banks, searches them in parallel, and merges the per-bank
//! winners in a second (digital) stage — a hierarchical winner-take-all.
//! [`BankedMcam`] models exactly that on top of [`McamArray`].
//!
//! A search names its settings once, as a [`SearchSpec`] (precision
//! and metric; a bare [`Precision`] converts), and picks its result
//! shape by entry point: winners or top-k, over every bank or over a
//! bank mask. The full sweep *is* the masked sweep with the all-banks
//! mask (the [bank-mask contract](crate::exec#bank-mask-contract)).
//! Batches run through each bank's cached compiled plan
//! ([`crate::exec`]), with query groups sharded across worker threads
//! ([`crate::par`]), and the winner merge is a fixed-order fold over
//! per-bank results in bank order, so every path is bit-identical to a
//! sequential bank-by-bank sweep.

use std::sync::Arc;

use crate::array::{McamArray, McamArrayBuilder, SearchOutcome};
use crate::error::CoreError;
use crate::exec::{
    self, BlockKernel, CompiledMcam, Metric, PlanMemoryBytes, Precision, SearchSpec,
};
use crate::levels::LevelLadder;
use crate::lut::ConductanceLut;
use crate::par;
use crate::Result;

/// A row-tiled stack of MCAM banks sharing one ladder/LUT.
///
/// # Examples
///
/// ```
/// use femcam_core::banked::BankedMcam;
/// use femcam_core::{ConductanceLut, LevelLadder, Metric, Precision, SearchSpec};
/// use femcam_device::FefetModel;
///
/// # fn main() -> femcam_core::Result<()> {
/// let ladder = LevelLadder::new(3)?;
/// let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
/// let mut banked = BankedMcam::new(ladder, lut, 4, 2); // 2 rows per bank
/// for row in [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]] {
///     banked.store(&row)?;
/// }
/// assert_eq!(banked.n_banks(), 2);
/// let query: &[u8] = &[1, 1, 2, 3];
/// let winners = banked.search_batch_winners_with(&[query], Precision::Codes)?;
/// assert_eq!(winners[0].0, 2); // global row index
/// // The same search under the digital L1 metric, and over bank 1 only.
/// let l1 = SearchSpec { precision: Precision::Codes, metric: Metric::L1 };
/// assert_eq!(banked.search_batch_winners_masked(&[query], l1, &[1])?[0].0, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BankedMcam {
    ladder: LevelLadder,
    lut: ConductanceLut,
    word_len: usize,
    rows_per_bank: usize,
    banks: Vec<McamArray>,
}

impl BankedMcam {
    /// Creates an empty banked memory with `rows_per_bank` rows per
    /// physical array.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_bank` or `word_len` is zero.
    #[must_use]
    pub fn new(
        ladder: LevelLadder,
        lut: ConductanceLut,
        word_len: usize,
        rows_per_bank: usize,
    ) -> Self {
        assert!(rows_per_bank > 0, "banks need at least one row");
        assert!(word_len > 0, "words need at least one cell");
        BankedMcam {
            ladder,
            lut,
            word_len,
            rows_per_bank,
            banks: Vec::new(),
        }
    }

    /// Number of allocated banks.
    #[must_use]
    pub fn n_banks(&self) -> usize {
        self.banks.len()
    }

    /// Total stored rows across all banks.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.banks.iter().map(McamArray::n_rows).sum()
    }

    /// Returns `true` if nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Rows per physical bank.
    #[must_use]
    pub fn rows_per_bank(&self) -> usize {
        self.rows_per_bank
    }

    /// Cells per stored word.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// The level ladder shared by every bank.
    #[must_use]
    pub fn ladder(&self) -> &LevelLadder {
        &self.ladder
    }

    /// The nominal LUT shared by every bank.
    #[must_use]
    pub fn lut(&self) -> &ConductanceLut {
        &self.lut
    }

    /// Validates a query against this memory's geometry (word length
    /// and ladder levels) without executing it — what a serving front
    /// end runs at admission time, so a malformed request is rejected
    /// synchronously instead of failing a whole micro-batch later.
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] /
    /// [`CoreError::LevelOutOfRange`] exactly as a search would report
    /// them.
    pub fn check_query(&self, query: &[u8]) -> Result<()> {
        exec::validate_query(self.word_len, self.ladder.n_levels(), query)
    }

    /// Splits this memory into exactly `n_parts` contiguous bank
    /// ranges, in global-row order — the physical partition a sharded
    /// serving front end hands to its per-shard dispatchers. Every
    /// part keeps the shared ladder/LUT and the same `word_len` /
    /// `rows_per_bank`; part `i`'s global rows start at the sum of the
    /// earlier parts' row counts, so `(partition, concat)` round-trips
    /// global row indices exactly.
    ///
    /// When there are fewer banks than parts, the trailing parts come
    /// back empty (they still accept stores). Because only the globally
    /// last bank can be partial, every bank outside the last nonempty
    /// part is full — which is what keeps the per-part global-row
    /// arithmetic exact.
    ///
    /// # Panics
    ///
    /// Panics if `n_parts` is zero.
    #[must_use]
    pub fn partition(mut self, n_parts: usize) -> Vec<BankedMcam> {
        assert!(n_parts > 0, "partition needs at least one part");
        let total = self.banks.len();
        let per = total / n_parts;
        let extra = total % n_parts;
        let mut banks = self.banks.drain(..);
        (0..n_parts)
            .map(|i| {
                let take = per + usize::from(i < extra);
                BankedMcam {
                    ladder: self.ladder,
                    lut: self.lut.clone(),
                    word_len: self.word_len,
                    rows_per_bank: self.rows_per_bank,
                    banks: banks.by_ref().take(take).collect(),
                }
            })
            .collect()
    }

    /// Reassembles memories produced by [`partition`](Self::partition)
    /// (in the same order) into one banked memory — the shutdown path
    /// of a sharded server. Validates that the parts share a geometry
    /// and that every bank except the global last is full, so the
    /// concatenated memory's global row indices equal the parts'
    /// base-offset rows exactly.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if `parts` is empty, the
    ///   `rows_per_bank` / ladder geometries disagree, or an interior
    ///   bank is not full.
    /// * [`CoreError::WordLengthMismatch`] if the word lengths
    ///   disagree.
    pub fn concat(parts: Vec<BankedMcam>) -> Result<BankedMcam> {
        let Some(first) = parts.first() else {
            return Err(CoreError::InvalidParameter {
                name: "concat parts",
                value: 0.0,
            });
        };
        let (ladder, lut) = (first.ladder, first.lut.clone());
        let (word_len, rows_per_bank) = (first.word_len, first.rows_per_bank);
        let mut banks = Vec::new();
        for part in parts {
            if part.word_len != word_len {
                return Err(CoreError::WordLengthMismatch {
                    expected: word_len,
                    actual: part.word_len,
                });
            }
            if part.rows_per_bank != rows_per_bank || part.ladder.n_levels() != ladder.n_levels() {
                return Err(CoreError::InvalidParameter {
                    name: "rows_per_bank",
                    value: part.rows_per_bank as f64,
                });
            }
            // Same geometry is not enough: conductances from different
            // LUTs live on different scales, and a merge across the
            // seam would compare them directly — wrong winners with no
            // error. Refuse loudly instead.
            if part.lut != lut {
                return Err(CoreError::InvalidParameter {
                    name: "conductance lut",
                    value: part.lut.n_levels() as f64,
                });
            }
            banks.extend(part.banks);
        }
        if banks
            .iter()
            .rev()
            .skip(1)
            .any(|b| b.n_rows() != rows_per_bank)
        {
            return Err(CoreError::InvalidParameter {
                name: "interior bank rows",
                value: rows_per_bank as f64,
            });
        }
        Ok(BankedMcam {
            ladder,
            lut,
            word_len,
            rows_per_bank,
            banks,
        })
    }

    /// Stores a word, allocating a new bank when the last one is full;
    /// returns the global row index.
    ///
    /// # Errors
    ///
    /// Propagates [`McamArray::store`] failures.
    pub fn store(&mut self, word: &[u8]) -> Result<usize> {
        let need_new = self
            .banks
            .last()
            .is_none_or(|b| b.n_rows() >= self.rows_per_bank);
        if need_new {
            self.banks.push(
                McamArrayBuilder::new(self.ladder, self.lut.clone())
                    .word_len(self.word_len)
                    .build(),
            );
        }
        let bank_idx = self.banks.len() - 1;
        let local = self.banks[bank_idx].store(word)?;
        Ok(bank_idx * self.rows_per_bank + local)
    }

    /// Every bank, as a mask (the full sweep's).
    fn all_banks(&self) -> Vec<usize> {
        (0..self.banks.len()).collect()
    }

    /// Validates a bank mask: strictly ascending, in-range bank
    /// indices, at least one of them (the
    /// [bank-mask contract](crate::exec#bank-mask-contract)).
    fn check_bank_mask(&self, banks: &[usize]) -> Result<()> {
        if banks.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "bank mask",
                value: 0.0,
            });
        }
        let mut prev = None;
        for &b in banks {
            if b >= self.banks.len() || prev.is_some_and(|p: usize| p >= b) {
                return Err(CoreError::InvalidParameter {
                    name: "bank mask",
                    value: b as f64,
                });
            }
            prev = Some(b);
        }
        Ok(())
    }

    /// The masked banks' `f64` plans when every one is warm or has paid
    /// for its compile; `None` means the bit-identical scalar sweep
    /// should serve this call. Each bank decides on its own (see
    /// [`McamArray`]'s cold-cache fallback): it compiles once `batch`
    /// queries, or the queries its scalar sweep has served since the
    /// bank last mutated, reach `n_levels` — so storing a row dirties
    /// one bank, not the whole memory, and a stream of small batches
    /// warms it again. Every masked bank counts the batch, so none
    /// falls behind the others.
    fn f64_plans_for(
        &self,
        banks: &[usize],
        batch: usize,
        metric: Metric,
    ) -> Result<Option<Vec<Arc<CompiledMcam<f64>>>>> {
        let plans = banks
            .iter()
            .map(|&b| self.banks[b].f64_plan_for(batch, metric))
            .collect::<Result<Vec<_>>>()?;
        Ok(plans.into_iter().collect())
    }

    /// One cached plan per masked bank, from `plan`.
    fn bank_plans<K>(
        &self,
        banks: &[usize],
        plan: impl Fn(&McamArray) -> Result<K>,
    ) -> Result<Vec<K>> {
        banks.iter().map(|&b| plan(&self.banks[b])).collect()
    }

    /// The scalar reference sweep over the masked banks: per query,
    /// each bank's physics-path search (banks sharded across workers),
    /// winners merged in ascending bank order with a strict `<`, so
    /// exact ties keep the lowest global row.
    fn scalar_winners(
        &self,
        queries: &[&[u8]],
        banks: &[usize],
        metric: Metric,
    ) -> Result<Vec<(usize, f64)>> {
        let threads = par::threads_for(self.n_rows() * self.word_len);
        queries
            .iter()
            .map(|query| {
                let per_bank = par::try_par_map(banks, threads, |_, &b| {
                    self.banks[b].search_metric(query, metric)
                })?;
                let mut best: Option<(usize, f64)> = None;
                for (&b, outcome) in banks.iter().zip(&per_bank) {
                    let local = outcome.best_row();
                    let g = outcome.conductance(local);
                    if best.is_none_or(|(_, bg)| g < bg) {
                        best = Some((b * self.rows_per_bank + local, g));
                    }
                }
                // femcam::allow(no_panic): the mask was validated
                // nonempty, so the loop saw at least one bank.
                Ok(best.expect("nonempty bank mask"))
            })
            .collect()
    }

    /// The fixed-order winner merge over the masked banks' kernels
    /// (`plans[i]` serves `banks[i]`).
    fn merge_winners<K: BlockKernel>(
        &self,
        queries: &[&[u8]],
        banks: &[usize],
        plans: &[K],
        n_threads: usize,
    ) -> Result<Vec<(usize, f64)>> {
        let bases: Vec<usize> = banks.iter().map(|&b| b * self.rows_per_bank).collect();
        exec::banked_winner_batch_kernel(plans, &bases, queries, n_threads)
    }

    /// Each query's merged `(global_row, score)` winner over every bank
    /// — the **default serving path** and the hierarchical
    /// winner-take-all: per-bank winners fold on the workers' reusable
    /// scratch in ascending bank order, so no per-query row vector is
    /// ever materialized and the result (including lowest-global-row
    /// tie-breaks) is bit-identical to a sequential bank-by-bank scalar
    /// sweep at any thread count, under every metric. Contiguous query
    /// groups shard across worker threads, so a whole batch costs a
    /// single fork–join no matter how many banks the memory spans.
    ///
    /// This is [`search_batch_winners_masked`](Self::search_batch_winners_masked)
    /// with the all-banks mask. Plans come from each bank's cache, under
    /// the same cold-cache `f64` scalar fallback as
    /// [`McamArray::search_batch_with`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored — even for an
    ///   empty batch (the empty-batch contract on
    ///   [`McamArray::search_batch_with`]).
    /// * The first failing query (in query order) fails the batch.
    pub fn search_batch_winners_with(
        &self,
        queries: &[&[u8]],
        spec: impl Into<SearchSpec>,
    ) -> Result<Vec<(usize, f64)>> {
        self.search_batch_winners_masked(queries, spec, &self.all_banks())
    }

    /// Each query's `k` nearest rows as `(global_row, score)` pairs
    /// (nearest first) — what lets a serving front end coalesce k-NN
    /// traffic into micro-batches. Every bank executes one batched
    /// bounded-heap sweep over its cached plan (the same kernels as the
    /// flat [`McamArray::search_batch_top_k_with`]); per-bank
    /// candidates merge by ascending `(score, global_row)`, so exact
    /// ties resolve to the lowest global row.
    ///
    /// This is [`search_batch_top_k_masked`](Self::search_batch_top_k_masked)
    /// with the all-banks mask. `k` is clamped, never an error: `0`
    /// returns empty vectors, `k > n_rows()` returns every row (the
    /// [`crate::engines::NnIndex::query_k`] contract).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`search_batch_winners_with`](Self::search_batch_winners_with).
    pub fn search_batch_top_k_with(
        &self,
        queries: &[&[u8]],
        k: usize,
        spec: impl Into<SearchSpec>,
    ) -> Result<Vec<Vec<(usize, f64)>>> {
        self.search_batch_top_k_masked(queries, k, spec, &self.all_banks())
    }

    /// Each query's merged `(global_row, score)` winner over **only the
    /// masked banks** — the second (exact re-rank) stage of two-stage
    /// retrieval (see [`crate::router`]). `banks` lists the bank subset
    /// to sweep, strictly ascending.
    ///
    /// Per query, the winner is exactly what a sequential scan of the
    /// masked banks would report: scores are bit-identical to the full
    /// sweep (a bank's fold never sees the mask) and exact ties
    /// resolve to the lowest global row within the mask — the
    /// [bank-mask contract](crate::exec#bank-mask-contract).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored.
    /// * [`CoreError::InvalidParameter`] if the mask is empty, not
    ///   strictly ascending, or names a bank that does not exist.
    /// * The first failing query (in query order) fails the batch.
    pub fn search_batch_winners_masked(
        &self,
        queries: &[&[u8]],
        spec: impl Into<SearchSpec>,
        banks: &[usize],
    ) -> Result<Vec<(usize, f64)>> {
        self.winners_masked(queries, spec.into(), banks, par::max_threads())
    }

    /// [`search_batch_winners_masked`](Self::search_batch_winners_masked)
    /// with an explicit worker-thread budget, for callers that already
    /// parallelize *across* masked sweeps (the routed batch path runs
    /// one sweep per touched bank concurrently and hands each sweep a
    /// share of the machine). Results are bit-identical at any budget;
    /// only timing changes.
    pub(crate) fn winners_masked(
        &self,
        queries: &[&[u8]],
        spec: SearchSpec,
        banks: &[usize],
        n_threads: usize,
    ) -> Result<Vec<(usize, f64)>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        self.check_bank_mask(banks)?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let metric = spec.metric;
        match spec.precision {
            Precision::F64 => match self.f64_plans_for(banks, queries.len(), metric)? {
                Some(plans) => self.merge_winners(queries, banks, &plans, n_threads),
                None => self.scalar_winners(queries, banks, metric),
            },
            Precision::F32 => {
                let plans = self.bank_plans(banks, |bank| bank.plane_plan::<f32>(metric))?;
                self.merge_winners(queries, banks, &plans, n_threads)
            }
            Precision::Codes => {
                let plans = self.bank_plans(banks, |bank| bank.codes_plan(metric))?;
                self.merge_winners(queries, banks, &plans, n_threads)
            }
        }
    }

    /// Each query's `k` nearest rows over **only the masked banks** —
    /// the top-k face of
    /// [`search_batch_winners_masked`](Self::search_batch_winners_masked),
    /// with the same merge ordering as
    /// [`search_batch_top_k_with`](Self::search_batch_top_k_with):
    /// ascending `(score, global_row)`, `k` clamped to the rows the mask
    /// exposes (never an error).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`search_batch_winners_masked`](Self::search_batch_winners_masked).
    pub fn search_batch_top_k_masked(
        &self,
        queries: &[&[u8]],
        k: usize,
        spec: impl Into<SearchSpec>,
        banks: &[usize],
    ) -> Result<Vec<Vec<(usize, f64)>>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        self.check_bank_mask(banks)?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        for query in queries {
            self.check_query(query)?;
        }
        let masked_rows: usize = banks.iter().map(|&b| self.banks[b].n_rows()).sum();
        let k = k.min(masked_rows);
        if k == 0 {
            return Ok(vec![Vec::new(); queries.len()]);
        }
        let spec = spec.into();
        let mut merged: Vec<Vec<(usize, f64)>> = vec![Vec::new(); queries.len()];
        for &bank_idx in banks {
            let base = bank_idx * self.rows_per_bank;
            let per_bank = self.banks[bank_idx].search_batch_top_k_with(queries, k, spec)?;
            for (slot, hits) in merged.iter_mut().zip(per_bank) {
                slot.extend(hits.into_iter().map(|(local, g)| (base + local, g)));
            }
        }
        for slot in &mut merged {
            slot.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            slot.truncate(k);
        }
        Ok(merged)
    }

    /// Resident bytes of every bank's cached compiled plans, summed per
    /// precision slot — the multi-bank face of
    /// [`McamArray::plan_memory_bytes`].
    #[must_use]
    pub fn plan_memory_bytes(&self) -> PlanMemoryBytes {
        let mut total = PlanMemoryBytes::default();
        for bank in &self.banks {
            total += bank.plan_memory_bytes();
        }
        total
    }

    /// Full per-bank outcomes at the default metric (for energy
    /// accounting or inspection), banks sharded across worker threads.
    ///
    /// Runs through the cached per-bank compiled `f64` plans under the
    /// same amortization gate as the winners path (warm plans always,
    /// cold ones only once a compile pays for itself), falling back to
    /// the scalar physics path otherwise. Compiled `f64` conductances
    /// are bit-identical to the scalar sweep (see [`crate::exec`]'s
    /// "Determinism guarantee"), so the outcomes are the same either
    /// way.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored.
    /// * [`CoreError::WordLengthMismatch`] /
    ///   [`CoreError::LevelOutOfRange`] for a malformed query.
    pub fn search_all_banks(&self, query: &[u8]) -> Result<Vec<SearchOutcome>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let threads = par::threads_for(self.n_rows() * self.word_len);
        match self.f64_plans_for(&self.all_banks(), 1, Metric::default())? {
            Some(plans) => par::try_par_map(&plans, threads, |_, plan| plan.search(query)),
            None => par::try_par_map(&self.banks, threads, |_, bank| bank.search(query)),
        }
    }

    /// The underlying banks, in global-row order (crate-internal: what
    /// the [`crate::router`] rebuild walks to index existing rows).
    pub(crate) fn banks(&self) -> &[McamArray] {
        &self.banks
    }

    /// The stored word at a global row, if that row exists — global
    /// rows are `bank_idx * rows_per_bank + local`, exactly what
    /// [`store`](Self::store) returned.
    #[must_use]
    pub fn row(&self, global_row: usize) -> Option<&[u8]> {
        let bank = self.banks.get(global_row / self.rows_per_bank)?;
        let local = global_row % self.rows_per_bank;
        (local < bank.n_rows()).then(|| bank.row(local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femcam_device::FefetModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(rows_per_bank: usize) -> BankedMcam {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        BankedMcam::new(ladder, lut, 8, rows_per_bank)
    }

    /// One query's full-sweep winner (a batch of one).
    fn winner(b: &BankedMcam, query: &[u8], precision: Precision) -> Result<(usize, f64)> {
        Ok(b.search_batch_winners_with(&[query], precision)?[0])
    }

    #[test]
    fn banks_allocate_on_demand() {
        let mut b = setup(3);
        assert_eq!(b.n_banks(), 0);
        for i in 0..7u8 {
            b.store(&[i; 8]).unwrap();
        }
        assert_eq!(b.n_banks(), 3);
        assert_eq!(b.n_rows(), 7);
    }

    #[test]
    fn global_indices_are_stable() {
        let mut b = setup(2);
        for i in 0..5u8 {
            let idx = b.store(&[i; 8]).unwrap();
            assert_eq!(idx, i as usize);
        }
    }

    #[test]
    fn banked_search_equals_flat_search() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 16, 5);
        let mut flat = McamArray::new(ladder, lut, 16);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..23 {
            let word: Vec<u8> = (0..16).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
            flat.store(&word).unwrap();
        }
        for _ in 0..30 {
            let query: Vec<u8> = (0..16).map(|_| rng.gen_range(0..8)).collect();
            let (banked_row, banked_g) = winner(&banked, &query, Precision::F64).unwrap();
            let outcome = flat.search(&query).unwrap();
            assert_eq!(banked_row, outcome.best_row());
            assert!((banked_g - outcome.conductance(outcome.best_row())).abs() < 1e-18);
        }
    }

    #[test]
    fn batched_search_equals_per_query_search() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, 8, 4);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..19 {
            let word: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
        }
        // 10 queries: above the compile threshold (n_levels = 8).
        let queries: Vec<Vec<u8>> = (0..10)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let batched = banked
            .search_batch_winners_with(&refs, Precision::F64)
            .unwrap();
        for (q, &(row, g)) in refs.iter().zip(&batched) {
            let (row1, g1) = winner(&banked, q, Precision::F64).unwrap();
            assert_eq!(row, row1);
            assert_eq!(g, g1, "batched conductance must be bit-identical");
        }
        assert!(banked
            .search_batch_winners_with(&[], Precision::F64)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn banked_top_k_matches_flat_top_k() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 6, 4);
        let mut flat = McamArray::new(ladder, lut, 6);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..17 {
            let word: Vec<u8> = (0..6).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
            flat.store(&word).unwrap();
        }
        let query: Vec<u8> = (0..6).map(|_| rng.gen_range(0..8)).collect();
        for precision in [Precision::F64, Precision::F32, Precision::Codes] {
            for k in [0usize, 1, 5, 17, 100] {
                let banked_k = banked
                    .search_batch_top_k_with(&[&query], k, precision)
                    .unwrap()
                    .remove(0);
                let flat_k = flat
                    .search_batch_top_k_with(&[&query], k, precision)
                    .unwrap()
                    .remove(0);
                assert_eq!(banked_k, flat_k, "k={k} {precision:?}");
            }
        }
    }

    #[test]
    fn codes_mode_matches_f32_across_banked_entry_points() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, 8, 16);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..40 {
            let word: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..12)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        // Batched winners: codes == f32, bit-identical.
        let codes = banked
            .search_batch_winners_with(&refs, Precision::Codes)
            .unwrap();
        let f32s = banked
            .search_batch_winners_with(&refs, Precision::F32)
            .unwrap();
        assert_eq!(codes, f32s);
        // A batch of one agrees too.
        for q in &refs {
            assert_eq!(
                winner(&banked, q, Precision::Codes).unwrap(),
                winner(&banked, q, Precision::F32).unwrap(),
            );
        }
        // Cached per-bank plan memory introspection sums across banks
        // (codes + f32 slots are warm after the searches above).
        let mem = banked.plan_memory_bytes();
        assert!(mem.codes > 0 && mem.f32_plane > 0);
        assert_eq!(mem.f64_plane, 0);
        assert_eq!(mem.total(), mem.codes + mem.f32_plane);
        // Codes plans stay small next to the f64 planes.
        banked
            .search_batch_winners_with(&refs, Precision::F64)
            .unwrap();
        let mem = banked.plan_memory_bytes();
        assert!(mem.f64_plane >= 16 * mem.codes);
    }

    #[test]
    fn empty_banked_memory_refuses_search() {
        let b = setup(4);
        assert!(matches!(
            winner(&b, &[0; 8], Precision::F64),
            Err(CoreError::EmptyArray)
        ));
        // The batch entry points share the contract — even for an
        // empty batch (see McamArray::search_batch_with's contract docs).
        assert!(matches!(
            b.search_batch_winners_with(&[], Precision::F64),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            b.search_batch_top_k_with(&[], 1, Precision::Codes),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            b.search_batch_winners_with(&[], Precision::F32),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn query_validation_matches_search_errors() {
        let mut b = setup(2);
        b.store(&[1; 8]).unwrap();
        assert!(b.check_query(&[1; 8]).is_ok());
        assert!(matches!(
            b.check_query(&[1; 7]),
            Err(CoreError::WordLengthMismatch {
                expected: 8,
                actual: 7
            })
        ));
        assert!(matches!(
            b.check_query(&[9; 8]),
            Err(CoreError::LevelOutOfRange { level: 9, max: 7 })
        ));
        assert_eq!(b.word_len(), 8);
        assert_eq!(b.ladder().n_levels(), 8);
        assert_eq!(b.lut().n_levels(), 8);
    }

    #[test]
    fn per_bank_outcomes_cover_all_banks() {
        let mut b = setup(2);
        for i in 0..6u8 {
            b.store(&[i; 8]).unwrap();
        }
        let outcomes = b.search_all_banks(&[3; 8]).unwrap();
        assert_eq!(outcomes.len(), 3);
    }

    #[test]
    fn batched_top_k_matches_solo_top_k() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, 6, 4);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..15 {
            let word: Vec<u8> = (0..6).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..5)
            .map(|_| (0..6).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for precision in [Precision::F64, Precision::F32, Precision::Codes] {
            for k in [0usize, 1, 3, 15, 99] {
                let batched = banked.search_batch_top_k_with(&refs, k, precision).unwrap();
                assert_eq!(batched.len(), refs.len());
                for (q, hits) in refs.iter().zip(&batched) {
                    let solo = banked
                        .search_batch_top_k_with(&[q], k, precision)
                        .unwrap()
                        .remove(0);
                    assert_eq!(hits, &solo, "k={k} {precision:?}");
                }
            }
            assert!(banked
                .search_batch_top_k_with(&[], 3, precision)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn partition_concat_round_trips_global_rows() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut rng = StdRng::seed_from_u64(17);
        // 7 rows over 2-row banks: 4 banks, the last one partial.
        let words: Vec<Vec<u8>> = (0..7)
            .map(|_| (0..5).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        for n_parts in [1usize, 2, 3, 4, 6] {
            let mut banked = BankedMcam::new(ladder, lut.clone(), 5, 2);
            for w in &words {
                banked.store(w).unwrap();
            }
            let parts = banked.partition(n_parts);
            assert_eq!(parts.len(), n_parts);
            // Contiguity: bases are cumulative, interior banks full.
            let total: usize = parts.iter().map(BankedMcam::n_rows).sum();
            assert_eq!(total, 7);
            for p in &parts {
                assert_eq!(p.rows_per_bank(), 2);
                assert_eq!(p.word_len(), 5);
            }
            let rejoined = BankedMcam::concat(parts).unwrap();
            assert_eq!(rejoined.n_rows(), 7);
            assert_eq!(rejoined.n_banks(), 4);
            // Every stored word is still found at its original global
            // row (exact match is the conductance minimum).
            for (row, w) in words.iter().enumerate() {
                // Duplicates resolve to the first occurrence.
                let expected = words.iter().position(|x| x == w).unwrap_or(row);
                assert_eq!(winner(&rejoined, w, Precision::F64).unwrap().0, expected);
            }
        }
    }

    #[test]
    fn concat_rejects_mismatched_parts() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        assert!(matches!(
            BankedMcam::concat(vec![]),
            Err(CoreError::InvalidParameter { .. })
        ));
        let a = BankedMcam::new(ladder, lut.clone(), 4, 2);
        let b = BankedMcam::new(ladder, lut.clone(), 5, 2);
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::WordLengthMismatch { .. })
        ));
        let a = BankedMcam::new(ladder, lut.clone(), 4, 2);
        let b = BankedMcam::new(ladder, lut.clone(), 4, 3);
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::InvalidParameter { .. })
        ));
        // A partial interior bank breaks global-row arithmetic.
        let mut a = BankedMcam::new(ladder, lut.clone(), 4, 2);
        a.store(&[1, 1, 1, 1]).unwrap();
        let mut b = BankedMcam::new(ladder, lut.clone(), 4, 2);
        b.store(&[2, 2, 2, 2]).unwrap();
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::InvalidParameter { .. })
        ));
        // Identical geometry but a different LUT: conductances would
        // mix scales across the seam — must be refused.
        let other_lut = {
            let params = femcam_device::FefetParams {
                i_on: 2e-4,
                ..Default::default()
            };
            let model = FefetModel::new(params).unwrap();
            ConductanceLut::from_device(&model, &ladder)
        };
        let a = BankedMcam::new(ladder, lut, 4, 2);
        let b = BankedMcam::new(ladder, other_lut, 4, 2);
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_per_bank_panics() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let _ = BankedMcam::new(ladder, lut, 8, 0);
    }
}
