//! Property tests for the precision-generic execution layer and the
//! cached auto-recompiling plans (`femcam_core::exec`).
//!
//! Three contracts are pinned here:
//!
//! 1. **f32 accuracy** — the opt-in `f32` fast mode must agree with the
//!    `f64` reference on top-1 and top-k up to the documented error
//!    bound (`word_len · ε_f32` relative per row): whenever the modes
//!    disagree on a rank, the `f64` conductances involved must be
//!    within `REL_TOL` of each other (i.e. the rows were
//!    f32-indistinguishable), across random ladders, bits ∈ {2, 3, 4},
//!    and device variation on/off.
//! 2. **Codes exactness** — the byte-packed level-code mode
//!    (`Precision::Codes`) is **bit-identical** to `f32` on shared-LUT
//!    arrays (every entry point: full outcomes, winners, top-k, flat
//!    and banked), and on variation arrays it transparently falls back
//!    to the very same `f32` plane plan, again bitwise.
//! 3. **Plan-cache invalidation** — a search issued after `store` sees
//!    the new rows, and the cached `f64` path stays bit-identical to a
//!    fresh compile and to the scalar physics path at every step of an
//!    interleaved store/search sequence, for flat arrays, banked
//!    memories, and the `McamNn` engine; the codes slot invalidates on
//!    store like the plane slots.

use proptest::prelude::*;

use femcam_harness::prelude::*;

/// Relative f64 gap below which two rows are considered
/// f32-indistinguishable (comfortably above `word_len · ε_f32` for the
/// word lengths generated here).
const REL_TOL: f64 = 1e-4;

fn build_array(bits: u8, word_len: usize, rows: &[Vec<u8>], sigma: f64, seed: u64) -> McamArray {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let model = FefetModel::default();
    let lut = ConductanceLut::from_device(&model, &ladder);
    let mut builder = McamArrayBuilder::new(ladder, lut).word_len(word_len);
    if sigma > 0.0 {
        builder = builder.variation(
            VariationSpec {
                sigma_v: sigma,
                seed,
            },
            model,
        );
    }
    let mut a = builder.build();
    for r in rows {
        a.store(r).expect("store");
    }
    a
}

/// Deterministic pseudo-random word over `n_levels`.
fn gen_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| (((seed as usize).wrapping_mul(37) + salt * 11 + c * 13) % n_levels) as u8)
        .collect()
}

/// One query's full outcome through the cached front door.
fn search_one(array: &McamArray, query: &[u8], precision: Precision) -> SearchOutcome {
    array
        .search_batch_with(&[query], precision)
        .expect("search")
        .remove(0)
}

/// Whether a plan is the packed-code kernel.
fn is_packed(plan: &Plan) -> bool {
    matches!(plan, Plan::Codes(dispatch) if dispatch.is_packed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// f32 top-1: either the same winner as f64, or the two winners'
    /// f64 conductances are within the f32 error bound of each other.
    #[test]
    fn f32_top1_matches_f64_up_to_error_bound(
        bits in 2u8..=4,
        word_len in 1usize..8,
        n_rows in 1usize..24,
        with_variation in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        let sigma = if with_variation { 0.06 } else { 0.0 };
        let array = build_array(bits, word_len, &rows, sigma, seed);
        let plan64 = array.plan(Precision::F64).expect("f64 plan");
        let plan32 = array.plan(Precision::F32).expect("f32 plan");
        for salt in [501usize, 602, 703] {
            let q = gen_word(word_len, n_levels, seed, salt);
            let o64 = plan64.search(&q).expect("f64 search");
            let o32 = plan32.search(&q).expect("f32 search");
            let w64 = o64.best_row();
            let w32 = o32.best_row();
            if w64 != w32 {
                let a = o64.conductance(w64);
                let b = o64.conductance(w32);
                let gap = (a - b).abs() / a.max(b);
                prop_assert!(
                    gap < REL_TOL,
                    "f32 picked row {w32} over {w64} with f64 gap {gap:e}"
                );
            }
            // Per-row conductances stay within the error bound too.
            for (g64, g32) in o64.conductances().iter().zip(o32.conductances()) {
                prop_assert!(((g64 - g32) / g64).abs() < REL_TOL);
            }
        }
    }

    /// f32 top-k recall: every row the f32 mode ranks into the top k is
    /// within the error bound of the true (f64) k-th best, and the two
    /// modes' top-k sets only ever differ across f32-indistinguishable
    /// boundaries.
    #[test]
    fn f32_topk_recall_within_error_bound(
        bits in 2u8..=4,
        word_len in 1usize..7,
        n_rows in 2usize..24,
        k in 1usize..6,
        with_variation in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i * 3 + 1)).collect();
        let sigma = if with_variation { 0.09 } else { 0.0 };
        let array = build_array(bits, word_len, &rows, sigma, seed ^ 0x5EED);
        let plan64 = array.plan(Precision::F64).expect("f64 plan");
        let plan32 = array.plan(Precision::F32).expect("f32 plan");
        let q = gen_word(word_len, n_levels, seed, 999);
        let o64 = plan64.search(&q).expect("f64 search");
        let o32 = plan32.search(&q).expect("f32 search");
        let top64 = o64.top_k(k);
        let top32 = o32.top_k(k);
        prop_assert_eq!(top64.len(), top32.len());
        // The f64 conductance of the k-th best admitted by either mode.
        let kth = o64.conductance(*top64.last().expect("nonempty"));
        for &r in &top32 {
            let g = o64.conductance(r);
            prop_assert!(
                g <= kth * (1.0 + REL_TOL),
                "f32 admitted row {r} with f64 conductance {g:e} vs k-th best {kth:e}"
            );
        }
    }

    /// Codes mode is bit-identical to f32 on shared-LUT arrays, across
    /// every entry point: the compiled plans directly, the cached array
    /// front doors (outcomes, winners, top-k), and the dispatch is the
    /// packed kernel (no silent plane fallback).
    #[test]
    fn codes_bit_identical_to_f32_on_shared_lut(
        bits in 2u8..=4,
        word_len in 1usize..8,
        n_rows in 1usize..24,
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        let array = build_array(bits, word_len, &rows, 0.0, seed);
        let dispatch = array.plan(Precision::Codes).expect("codes plan");
        prop_assert!(is_packed(&dispatch), "shared-LUT array must use the packed kernel");
        let plan32 = array.plan(Precision::F32).expect("f32 plan");
        let queries: Vec<Vec<u8>> =
            (0..4).map(|s| gen_word(word_len, n_levels, seed, 800 + s)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for q in &refs {
            let oc = dispatch.search(q).expect("codes search");
            let of = plan32.search(q).expect("f32 search");
            prop_assert_eq!(oc.conductances(), of.conductances());
        }
        // Cached array front doors, all three batched shapes.
        let bc = array.search_batch_with(&refs, Precision::Codes).expect("codes batch");
        let bf = array.search_batch_with(&refs, Precision::F32).expect("f32 batch");
        for (c, f) in bc.iter().zip(&bf) {
            prop_assert_eq!(c.conductances(), f.conductances());
        }
        prop_assert_eq!(
            array.search_batch_winners_with(&refs, Precision::Codes).expect("codes winners"),
            array.search_batch_winners_with(&refs, Precision::F32).expect("f32 winners")
        );
        prop_assert_eq!(
            array.search_batch_top_k_with(&refs, k, Precision::Codes).expect("codes top k"),
            array.search_batch_top_k_with(&refs, k, Precision::F32).expect("f32 top k")
        );
    }

    /// Variation arrays cannot share a LUT: codes mode must dispatch to
    /// the f32 plane fallback and produce bitwise-f32 results from
    /// every entry point.
    #[test]
    fn codes_falls_back_to_f32_under_variation(
        bits in 2u8..=4,
        word_len in 1usize..7,
        n_rows in 1usize..16,
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i * 2 + 1)).collect();
        let array = build_array(bits, word_len, &rows, 0.07, seed ^ 0xC0DE5);
        let dispatch = array.plan(Precision::Codes).expect("codes dispatch");
        prop_assert!(!is_packed(&dispatch), "variation array must fall back to planes");
        let queries: Vec<Vec<u8>> =
            (0..3).map(|s| gen_word(word_len, n_levels, seed, 700 + s)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let bc = array.search_batch_with(&refs, Precision::Codes).expect("codes batch");
        let bf = array.search_batch_with(&refs, Precision::F32).expect("f32 batch");
        for (c, f) in bc.iter().zip(&bf) {
            prop_assert_eq!(c.conductances(), f.conductances());
        }
        let single_codes = search_one(&array, &queries[0], Precision::Codes);
        let single_f32 = search_one(&array, &queries[0], Precision::F32);
        prop_assert_eq!(single_codes.conductances(), single_f32.conductances());
    }

    /// The codes slot invalidates on store at every entry point: flat
    /// arrays, banked memories, and the `McamNn` engine all see rows
    /// stored after the plan was cached, and stay bitwise-f32
    /// throughout the interleaving.
    #[test]
    fn codes_cache_invalidation_tracks_stores(
        rows_per_bank in 1usize..5,
        n_steps in 1usize..8,
        seed in 0u64..500,
    ) {
        let ladder = LevelLadder::new(3).expect("ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 4, rows_per_bank);
        let mut flat = McamArray::new(ladder, lut, 4);
        for step in 0..n_steps {
            let word = gen_word(4, 8, seed, step);
            banked.store(&word).expect("store banked");
            flat.store(&word).expect("store flat");
            // Flat: the cached codes plan reflects every store.
            let outcome = search_one(&flat, &word, Precision::Codes);
            prop_assert_eq!(outcome.conductances().len(), step + 1);
            // The row just stored is an exact match on a nominal
            // array, so it ties the winning conductance.
            prop_assert_eq!(
                outcome.conductance(outcome.best_row()),
                outcome.conductance(step)
            );
            // Banked: codes winners equal f32 winners bitwise while
            // rows keep arriving (per-bank codes slots invalidate
            // independently).
            let queries: Vec<Vec<u8>> = (0..3)
                .map(|s| gen_word(4, 8, seed, 300 + step * 3 + s))
                .collect();
            let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
            prop_assert_eq!(
                banked.search_batch_winners_with(&refs, Precision::Codes).expect("banked codes"),
                banked.search_batch_winners_with(&refs, Precision::F32).expect("banked f32")
            );
        }
        // Engine entry point: add() must invalidate the codes slot so
        // the next query sees the new entry.
        let entries: Vec<Vec<f32>> = (0..n_steps.max(2))
            .map(|i| (0..3).map(|c| ((seed as usize + i * 7 + c * 3) % 53) as f32 / 53.0).collect())
            .collect();
        let mut idx = McamNn::fit(
            3,
            entries.iter().map(|e| e.as_slice()),
            3,
            QuantizeStrategy::PerFeatureMinMax,
            &FefetModel::default(),
        )
        .expect("fit")
        .with_precision(Precision::Codes);
        for (i, e) in entries.iter().enumerate() {
            idx.add(e, i as u32).expect("add");
            let hits = idx.query_k(e, entries.len()).expect("query after add");
            prop_assert!(
                hits.iter().any(|h| h.index == i),
                "codes query must see the row just added"
            );
        }
    }

    /// Interleaved store/search: the cached plan always reflects the
    /// latest contents, bit-identically to both a fresh compile and the
    /// scalar reference.
    #[test]
    fn plan_cache_invalidation_tracks_stores(
        bits in 1u8..=3,
        word_len in 1usize..6,
        n_batches in 1usize..5,
        with_variation in any::<bool>(),
        seed in 0u64..500,
    ) {
        let n_levels = 1usize << bits;
        let sigma = if with_variation { 0.05 } else { 0.0 };
        let mut array = build_array(
            bits,
            word_len,
            &[gen_word(word_len, n_levels, seed, 0)],
            sigma,
            seed,
        );
        for batch in 0..n_batches {
            let new_row = gen_word(word_len, n_levels, seed, batch * 7 + 1);
            array.store(&new_row).expect("store");
            let q = gen_word(word_len, n_levels, seed, batch * 7 + 2);
            // Cached path, scalar reference, and explicit fresh compile
            // must agree bitwise — and see every stored row.
            let cached = search_one(&array, &q, Precision::F64);
            let scalar = array.search(&q).expect("scalar");
            let fresh = array
                .plan(Precision::F64)
                .expect("fresh")
                .search(&q)
                .expect("fresh search");
            prop_assert_eq!(cached.conductances(), scalar.conductances());
            prop_assert_eq!(fresh.conductances(), scalar.conductances());
            prop_assert_eq!(cached.conductances().len(), batch + 2);
            // A post-store exact-match query finds the new row (on a
            // nominal array the exact match minimizes conductance, so
            // the winner's conductance equals the new row's; variation
            // arrays only guarantee visibility, asserted above).
            let hit = search_one(&array, &new_row, Precision::F64);
            let stored_at = batch + 1;
            if !with_variation {
                prop_assert_eq!(
                    hit.conductance(hit.best_row()),
                    hit.conductance(stored_at)
                );
            }
            // The f32 cache tracks the same contents.
            let hit32 = search_one(&array, &new_row, Precision::F32);
            prop_assert_eq!(hit32.conductances().len(), batch + 2);
        }
    }

    /// Banked memories: per-bank caches invalidate on store and the
    /// batched front door stays bit-identical to a flat scalar sweep
    /// while rows keep arriving.
    #[test]
    fn banked_plan_cache_tracks_stores(
        rows_per_bank in 1usize..5,
        n_steps in 1usize..10,
        seed in 0u64..500,
    ) {
        let ladder = LevelLadder::new(3).expect("ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 4, rows_per_bank);
        let mut flat = McamArray::new(ladder, lut, 4);
        for step in 0..n_steps {
            let word = gen_word(4, 8, seed, step);
            banked.store(&word).expect("store banked");
            flat.store(&word).expect("store flat");
            let queries: Vec<Vec<u8>> = (0..3)
                .map(|s| gen_word(4, 8, seed, 100 + step * 3 + s))
                .collect();
            let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
            let batched = banked
                .search_batch_winners_with(&refs, Precision::F64)
                .expect("banked batch");
            for (q, &(row, g)) in refs.iter().zip(&batched) {
                let scalar = flat.search(q).expect("flat scalar");
                prop_assert_eq!(row, scalar.best_row());
                prop_assert_eq!(g, scalar.conductance(scalar.best_row()));
            }
            // The f32 front door tracks the same contents: its winner
            // is either the f64 winner or f32-indistinguishable from
            // it, and its score is within the error bound of that
            // row's true conductance.
            let (r32, g32) = banked
                .search_batch_winners_with(&refs[..1], Precision::F32)
                .expect("banked f32")[0];
            let scalar = flat.search(&queries[0]).expect("flat");
            prop_assert!(r32 < flat.n_rows());
            let true_g32 = scalar.conductance(r32);
            prop_assert!(((true_g32 - g32) / true_g32).abs() < REL_TOL);
            let r64 = scalar.best_row();
            if r32 != r64 {
                let a = scalar.conductance(r64);
                let gap = (a - true_g32).abs() / a.max(true_g32);
                prop_assert!(gap < REL_TOL, "f32 winner {r32} vs {r64}, gap {gap:e}");
            }
        }
    }

    /// The engine front door: `McamNn` with a precision knob keeps
    /// batched == sequential at both precisions, and `add` invalidates
    /// the cache so queries see new entries immediately.
    #[test]
    fn mcam_engine_precision_and_cache(
        dims in 1usize..5,
        n_entries in 2usize..10,
        precision_sel in 0usize..3,
        seed in 0u64..300,
    ) {
        let entries: Vec<Vec<f32>> = (0..n_entries)
            .map(|i| {
                (0..dims)
                    .map(|c| ((seed as usize + i * 13 + c * 7) % 89) as f32 / 89.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = entries.iter().map(|e| e.as_slice()).collect();
        let precision = [Precision::F64, Precision::F32, Precision::Codes][precision_sel];
        let mut idx = McamNn::fit(
            3,
            refs.iter().copied(),
            dims,
            QuantizeStrategy::PerFeatureMinMax,
            &FefetModel::default(),
        )
        .expect("fit")
        .with_precision(precision);
        prop_assert_eq!(idx.precision(), precision);
        // Entries arrive one at a time; the cache must track each add:
        // the row just stored must be visible, and (being an exact
        // match of its own quantized word on a nominal array) must tie
        // the winning score. An earlier duplicate may still win the
        // lowest-index tie-break, so equality is on score, not index.
        for (i, e) in entries.iter().enumerate() {
            idx.add(e, i as u32).expect("add");
            let hits = idx.query_k(e, n_entries).expect("query_k after add");
            let new_row = hits.iter().find(|h| h.index == i);
            prop_assert!(new_row.is_some(), "query must see the row just added");
            prop_assert_eq!(new_row.expect("present").score, hits[0].score);
        }
        // Batched results equal sequential results at this precision.
        let batched = idx.query_batch(&refs).expect("batch");
        let batched_k = idx.query_k_batch(&refs, 3).expect("batch k");
        for (i, q) in refs.iter().enumerate() {
            let s = idx.query(q).expect("query");
            prop_assert_eq!(batched[i].index, s.index);
            prop_assert_eq!(batched[i].score, s.score);
            let sk = idx.query_k(q, 3).expect("query_k");
            prop_assert_eq!(batched_k[i].len(), sk.len());
            for (b, s) in batched_k[i].iter().zip(&sk) {
                prop_assert_eq!(b.index, s.index);
                prop_assert_eq!(b.score, s.score);
            }
        }
    }
}

/// Hashed pseudo-random word over `n_levels` (SplitMix64 per cell):
/// neighbouring rows carry unrelated codes, so a kernel that routes one
/// row's fold into another row's slot changes the results.
fn hashed_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| {
            let mut z = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(((salt as u64) << 20) ^ c as u64);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n_levels as u64) as u8
        })
        .collect()
}

/// Conductances as raw bits: equality means bit-identical.
fn outcome_bits(outcome: &SearchOutcome) -> Vec<u64> {
    outcome.conductances().iter().map(|g| g.to_bits()).collect()
}

/// Ranked hits as `(row, score bits)`.
fn hit_bits(hits: &[(usize, f64)]) -> Vec<(usize, u64)> {
    hits.iter().map(|&(row, g)| (row, g.to_bits())).collect()
}

/// Codes equals f32 bit for bit on one geometry, through every face
/// of the codes kernel: one query through the plan's single-query
/// search and as a batch of one, a batch of `batch` queries, and the
/// banked merges over 256-row banks, full and masked to the last bank;
/// conductances, winners and top-`k`, for every metric.
fn check_codes_equal_f32(
    bits: u8,
    word_len: usize,
    n_rows: usize,
    batch: usize,
    k: usize,
    seed: u64,
) -> Result<(), String> {
    let n_levels = 1usize << bits;
    let rows: Vec<Vec<u8>> = (0..n_rows)
        .map(|i| hashed_word(word_len, n_levels, seed, i))
        .collect();
    let array = build_array(bits, word_len, &rows, 0.0, seed);
    let ladder = *array.ladder();
    let mut banked = BankedMcam::new(ladder, array.lut().clone(), word_len, 256);
    for r in &rows {
        banked.store(r).expect("store banked");
    }
    let queries: Vec<Vec<u8>> = (0..batch)
        .map(|s| hashed_word(word_len, n_levels, seed ^ 0x5EED, s))
        .collect();
    let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let mask = [banked.n_banks() - 1];
    for metric in Metric::ALL {
        let codes = SearchSpec {
            precision: Precision::Codes,
            metric,
        };
        let f32s = SearchSpec {
            precision: Precision::F32,
            metric,
        };
        let dispatch = array.plan(codes).expect("codes plan");
        prop_assert!(
            is_packed(&dispatch),
            "shared-LUT array must use the packed kernel"
        );
        let plan32 = array.plan(f32s).expect("f32 plan");
        // One query: the single-query face and a batch of one.
        let single = dispatch.search(refs[0]).expect("codes search");
        prop_assert_eq!(
            outcome_bits(&single),
            outcome_bits(&plan32.search(refs[0]).expect("f32 search"))
        );
        let one_c = array
            .search_batch_with(&refs[..1], codes)
            .expect("codes batch of one");
        prop_assert_eq!(outcome_bits(&one_c[0]), outcome_bits(&single));
        // A batch of several: the block face, all three shapes.
        let bc = array.search_batch_with(&refs, codes).expect("codes batch");
        let bf = array.search_batch_with(&refs, f32s).expect("f32 batch");
        for (c, f) in bc.iter().zip(&bf) {
            prop_assert_eq!(outcome_bits(c), outcome_bits(f));
        }
        for shape in [&refs[..1], &refs[..]] {
            prop_assert_eq!(
                hit_bits(
                    &array
                        .search_batch_winners_with(shape, codes)
                        .expect("codes winners")
                ),
                hit_bits(
                    &array
                        .search_batch_winners_with(shape, f32s)
                        .expect("f32 winners")
                )
            );
            for (c, f) in array
                .search_batch_top_k_with(shape, k, codes)
                .expect("codes top k")
                .iter()
                .zip(
                    &array
                        .search_batch_top_k_with(shape, k, f32s)
                        .expect("f32 top k"),
                )
            {
                prop_assert_eq!(hit_bits(c), hit_bits(f));
            }
            // Banked, 256-row banks: the full sweep and a mask of
            // the last bank.
            prop_assert_eq!(
                hit_bits(
                    &banked
                        .search_batch_winners_with(shape, codes)
                        .expect("banked codes")
                ),
                hit_bits(
                    &banked
                        .search_batch_winners_with(shape, f32s)
                        .expect("banked f32")
                )
            );
            prop_assert_eq!(
                hit_bits(
                    &banked
                        .search_batch_winners_masked(shape, codes, &mask)
                        .expect("masked codes")
                ),
                hit_bits(
                    &banked
                        .search_batch_winners_masked(shape, f32s, &mask)
                        .expect("masked f32")
                )
            );
            let full_c = banked
                .search_batch_top_k_with(shape, k, codes)
                .expect("banked top k");
            let full_f = banked
                .search_batch_top_k_with(shape, k, f32s)
                .expect("banked f32 k");
            let mask_c = banked
                .search_batch_top_k_masked(shape, k, codes, &mask)
                .expect("masked top k");
            let mask_f = banked
                .search_batch_top_k_masked(shape, k, f32s, &mask)
                .expect("masked f32 k");
            for (c, f) in full_c
                .iter()
                .chain(&mask_c)
                .zip(full_f.iter().chain(&mask_f))
            {
                prop_assert_eq!(hit_bits(c), hit_bits(f));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Codes equals f32 bitwise at production geometry. The AVX2 codes
    /// loop folds rows in 64-row register groups of two 32-row halves
    /// (four byte-shifted accumulators each), runs the last rows of a
    /// window through zero-padded loads, and tiles rows for the block
    /// face; production banks hold 256 rows. Row counts up to 300 cross
    /// the group and bank boundaries, word lengths up to 64 shrink the
    /// block face's row tile toward 256 rows, 2- and 3-bit ladders take
    /// the AVX2 loop and 4-bit ladders the portable one, and every
    /// metric runs (Linf is the max fold).
    #[test]
    fn codes_bit_identical_to_f32_at_production_geometry(
        bits in 2u8..=4,
        word_len in 1usize..=64,
        n_rows in 1usize..=300,
        batch in 2usize..6,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        check_codes_equal_f32(bits, word_len, n_rows, batch, k, seed)?;
    }
}

/// The geometries the sampled property reaches only by chance, pinned:
/// 64-cell words over 300 rows put the block face's second row tile at
/// row 256 with a 44-row tail (one full 32-row half, one zero-padded),
/// and make a second, partial 256-row bank; 257 and 320 rows end a
/// window one row past and exactly on a group boundary.
#[test]
fn codes_bit_identical_to_f32_across_row_tiles() {
    for bits in 2u8..=4 {
        for (word_len, n_rows) in [(64, 300), (64, 257), (60, 320), (33, 95)] {
            if let Err(message) = check_codes_equal_f32(bits, word_len, n_rows, 3, 4, 7) {
                panic!("bits {bits}, {word_len}x{n_rows}: {message}");
            }
        }
    }
}
