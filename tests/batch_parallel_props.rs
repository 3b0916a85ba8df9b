//! Property tests proving the compiled / parallel / batched execution
//! paths are **bit-identical** to the scalar reference path
//! (`McamArray::search`) across random ladders, word lengths, bank
//! sizes, thread counts, and device variation on/off.
//!
//! These are the determinism guarantees documented in
//! `femcam_core::exec`: sharding happens only across rows, queries, and
//! banks — never inside one row's column-order fold — so equality below
//! is exact (`==` on `f64`), not approximate.

use proptest::prelude::*;

use femcam_harness::prelude::*;

/// A nominal array over a `bits`-wide ladder holding `rows`.
fn nominal_array(bits: u8, word_len: usize, rows: &[Vec<u8>]) -> McamArray {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut a = McamArray::new(ladder, lut, word_len);
    for r in rows {
        a.store(r).expect("store");
    }
    a
}

/// Like [`nominal_array`] but with per-cell Gaussian `Vth` variation.
fn varied_array(bits: u8, word_len: usize, rows: &[Vec<u8>], sigma: f64, seed: u64) -> McamArray {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let model = FefetModel::default();
    let lut = ConductanceLut::from_device(&model, &ladder);
    let mut a = McamArrayBuilder::new(ladder, lut)
        .word_len(word_len)
        .variation(
            VariationSpec {
                sigma_v: sigma,
                seed,
            },
            model,
        )
        .build();
    for r in rows {
        a.store(r).expect("store");
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled single-query search is bit-identical to the scalar
    /// reference for every ladder width, word length, and row set —
    /// with and without device variation.
    #[test]
    fn compiled_search_equals_scalar(
        bits in 1u8..=4,
        word_len in 1usize..7,
        n_rows in 1usize..12,
        sigma_case in 0usize..3,
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let gen_word = |salt: usize| -> Vec<u8> {
            (0..word_len)
                .map(|c| (((seed as usize).wrapping_mul(31) + salt * 7 + c * 13) % n_levels) as u8)
                .collect()
        };
        let rows: Vec<Vec<u8>> = (0..n_rows).map(gen_word).collect();
        let array = match sigma_case {
            0 => nominal_array(bits, word_len, &rows),
            1 => varied_array(bits, word_len, &rows, 0.04, seed),
            _ => varied_array(bits, word_len, &rows, 0.12, seed ^ 0xABCD),
        };
        let plan = array.plan(Precision::F64).expect("compile");
        for salt in [101usize, 202, 303] {
            let q = gen_word(salt);
            let scalar = array.search(&q).expect("scalar search");
            let compiled = plan.search(&q).expect("compiled search");
            prop_assert_eq!(scalar.conductances(), compiled.conductances());
        }
    }

    /// Row-sharded execution is bit-identical for every thread count,
    /// and batched execution preserves query order.
    #[test]
    fn sharded_and_batched_equal_scalar(
        word_len in 1usize..6,
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..8, 5), 1..24),
        queries in proptest::collection::vec(
            proptest::collection::vec(0u8..8, 5), 1..12),
        threads in 1usize..9,
    ) {
        let rows: Vec<Vec<u8>> = rows.iter().map(|r| r[..word_len].to_vec()).collect();
        let queries: Vec<Vec<u8>> = queries.iter().map(|q| q[..word_len].to_vec()).collect();
        let array = nominal_array(3, word_len, &rows);
        let plan = array.plan(Precision::F64).expect("compile");
        let Plan::F64(planes) = &plan else {
            panic!("f64 spec must hand out the f64 planes");
        };
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let batched = plan.search_batch(&refs, threads).expect("batched");
        prop_assert_eq!(batched.len(), queries.len());
        for (q, outcome) in refs.iter().zip(&batched) {
            let scalar = array.search(q).expect("scalar");
            prop_assert_eq!(scalar.conductances(), outcome.conductances());
            // Explicit row sharding at this thread count too.
            let mut sharded = vec![0.0; planes.n_rows()];
            planes.search_into(q, threads, &mut sharded).expect("sharded");
            prop_assert_eq!(scalar.conductances(), &sharded[..]);
        }
        // The array-level batch front door agrees as well.
        let front = array.search_batch_with(&refs, Precision::F64).expect("front");
        for (a, b) in front.iter().zip(&batched) {
            prop_assert_eq!(a.conductances(), b.conductances());
        }
    }

    /// Banked search — the cold-cache scalar sweep (parallel banks),
    /// the compiled batch merge, the all-banks mask and the top-k head,
    /// at any bank size and batch composition — always returns the flat
    /// scalar argmin row and its exact conductance.
    #[test]
    fn banked_paths_equal_flat_scalar(
        rows_per_bank in 1usize..7,
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..8, 4), 1..20),
        queries in proptest::collection::vec(
            proptest::collection::vec(0u8..8, 4), 1..10),
        threads in 1usize..6,
    ) {
        let ladder = LevelLadder::new(3).expect("ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 4, rows_per_bank);
        let mut flat = McamArray::new(ladder, lut, 4);
        for r in &rows {
            banked.store(r).expect("store banked");
            flat.store(r).expect("store flat");
        }
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let winners = |queries: &[&[u8]]| {
            banked
                .search_batch_winners_with(queries, Precision::F64)
                .expect("banked winners")
        };
        // Batches of `threads` queries (fewer than the 8 ladder levels)
        // on a cold cache take the scalar per-bank sweep until 8 queries
        // in all have gone that way; the batch that reaches 8 compiles...
        let cold: Vec<(usize, f64)> = refs.chunks(threads).flat_map(&winners).collect();
        prop_assert_eq!(banked.plan_memory_bytes().f64_plane > 0, refs.len() >= 8);
        // ...a batch of at least 8 compiles the per-bank plans...
        let padded: Vec<&[u8]> = refs.iter().copied().cycle().take(refs.len().max(8)).collect();
        let compiled = winners(&padded);
        prop_assert!(banked.plan_memory_bytes().f64_plane > 0);
        // ...and the same small batches then run on the warm plans.
        let warm: Vec<(usize, f64)> = refs.chunks(threads).flat_map(&winners).collect();
        let all: Vec<usize> = (0..banked.n_banks()).collect();
        let masked = banked
            .search_batch_winners_masked(&refs, Precision::F64, &all)
            .expect("all-banks mask");
        let top = banked
            .search_batch_top_k_with(&refs, 1, Precision::F64)
            .expect("banked top-1");
        for (i, q) in refs.iter().enumerate() {
            let scalar = flat.search(q).expect("flat scalar");
            let best = scalar.best_row();
            let expected = (best, scalar.conductance(best));
            prop_assert_eq!(cold[i], expected);
            prop_assert_eq!(compiled[i], expected);
            prop_assert_eq!(warm[i], expected);
            prop_assert_eq!(masked[i], expected);
            prop_assert_eq!(&top[i][..], &[expected][..]);
        }
    }

    /// Engine-level batching returns exactly the sequential per-query
    /// results for the in-MCAM engine (the one with a natively compiled
    /// batch path) under variation on/off.
    #[test]
    fn mcam_engine_batch_equals_sequential(
        dims in 1usize..5,
        n_entries in 1usize..12,
        with_variation in any::<bool>(),
        seed in 0u64..500,
    ) {
        let entries: Vec<Vec<f32>> = (0..n_entries)
            .map(|i| {
                (0..dims)
                    .map(|c| ((seed as usize + i * 17 + c * 5) % 97) as f32 / 97.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = entries.iter().map(|e| e.as_slice()).collect();
        let model = FefetModel::default();
        let mut idx = if with_variation {
            McamNn::fit_with_variation(
                3,
                refs.iter().copied(),
                dims,
                QuantizeStrategy::PerFeatureMinMax,
                &model,
                VariationSpec { sigma_v: 0.05, seed },
            ).expect("fit")
        } else {
            McamNn::fit(
                3,
                refs.iter().copied(),
                dims,
                QuantizeStrategy::PerFeatureMinMax,
                &model,
            ).expect("fit")
        };
        for (i, e) in entries.iter().enumerate() {
            idx.add(e, i as u32).expect("add");
        }
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

    /// The bounded-heap top-k equals a stable full sort for arbitrary
    /// scores (ties included) and any k.
    #[test]
    fn bounded_heap_top_k_equals_stable_sort(
        scores in proptest::collection::vec(0u8..12, 1..40),
        k in 0usize..45,
    ) {
        let scores: Vec<f64> = scores.iter().map(|&s| f64::from(s) * 0.25).collect();
        let mut expect: Vec<usize> = (0..scores.len()).collect();
        expect.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite"));
        expect.truncate(k);
        prop_assert_eq!(top_k_indices(&scores, k), expect);
    }
}
