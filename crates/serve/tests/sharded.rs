//! The sharded serving layer's determinism contract, pinned as
//! properties:
//!
//! 1. **Three-way bit-identity** — every winner served by a
//!    [`ShardedServer`] equals both a single-dispatcher
//!    [`McamServer`]'s answer and a direct
//!    [`BankedMcam::search_batch_winners_with`] against an identically mutated
//!    shadow memory: same winning global row, same `f64` conductance,
//!    bitwise — at every precision, every shard count, and under
//!    interleaved stores (which route to the tail shard only).
//! 2. **Top-k merge identity** — the fanned, per-shard-truncated
//!    top-k merge equals [`BankedMcam::search_batch_top_k_with`] exactly
//!    (order, rows, and conductance bits).
//! 3. **Ties straddling shard boundaries** — duplicated rows placed in
//!    different shards tie bit-for-bit, and the merged winner is the
//!    lowest global row, exactly as the in-memory banked merge
//!    resolves it.

use std::time::Duration;

use proptest::prelude::*;

use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, Precision};
use femcam_device::FefetModel;
use femcam_serve::{McamServer, ServeConfig, ServeError, ShardedServer};

fn precision_from(tag: u8) -> Precision {
    match tag % 3 {
        0 => Precision::F64,
        1 => Precision::F32,
        _ => Precision::Codes,
    }
}

fn empty_memory(bits: u8, word_len: usize, rows_per_bank: usize) -> BankedMcam {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    BankedMcam::new(ladder, lut, word_len, rows_per_bank)
}

/// Deterministic pseudo-random word over `n_levels`.
fn gen_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| (((seed as usize).wrapping_mul(37) + salt * 23 + c * 11) % n_levels) as u8)
        .collect()
}

fn serve_config(precision: Precision) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(50),
        precision,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// An interleaved store/search sequence through the sharded
    /// server is bit-identical, step by step, to the same sequence
    /// through a single-dispatcher server AND applied directly to a
    /// shadow memory.
    #[test]
    fn sharded_bit_identical_to_single_and_direct_under_stores(
        bits in 2u8..=3,
        word_len in 1usize..5,
        rows_per_bank in 1usize..5,
        n_shards in 1usize..5,
        precision_tag in 0u8..3,
        seed in 0u64..500,
        ops in proptest::collection::vec(any::<bool>(), 4..20),
    ) {
        let precision = precision_from(precision_tag);
        let n_levels = 1usize << bits;
        // Pre-populate so the partition actually spreads banks.
        let mut initial = empty_memory(bits, word_len, rows_per_bank);
        let mut single = empty_memory(bits, word_len, rows_per_bank);
        let mut shadow = empty_memory(bits, word_len, rows_per_bank);
        for i in 0..(n_shards * rows_per_bank) {
            let word = gen_word(word_len, n_levels, seed, i);
            initial.store(&word).expect("store");
            single.store(&word).expect("store");
            shadow.store(&word).expect("store");
        }
        let sharded = ShardedServer::start(initial, n_shards, serve_config(precision));
        let single = McamServer::start(single, serve_config(precision));
        let sh = sharded.handle();
        let sg = single.handle();
        for (i, is_store) in ops.iter().enumerate() {
            let word = gen_word(word_len, n_levels, seed ^ 0xBEEF, i);
            if *is_store {
                let sharded_row = sh.store(&word).expect("sharded store");
                let single_row = sg.store(&word).expect("single store");
                let shadow_row = shadow.store(&word).expect("shadow store");
                prop_assert_eq!(sharded_row, shadow_row, "sharded store row");
                prop_assert_eq!(single_row, shadow_row, "single store row");
            } else {
                let a = sh.search(&word).expect("sharded search");
                let b = sg.search(&word).expect("single search");
                let c = shadow.search_batch_winners_with(&[&word[..]], precision).expect("direct search")[0];
                prop_assert_eq!(a.0, c.0, "sharded winner row");
                prop_assert_eq!(b.0, c.0, "single winner row");
                prop_assert_eq!(a.1.to_bits(), c.1.to_bits(), "sharded conductance");
                prop_assert_eq!(b.1.to_bits(), c.1.to_bits(), "single conductance");
            }
        }
        let merged_stats = sharded.stats().merged();
        prop_assert!(merged_stats.queries + merged_stats.stores > 0);
        let reassembled = sharded.shutdown().expect("clean shutdown");
        prop_assert_eq!(reassembled.n_rows(), shadow.n_rows());
        prop_assert_eq!(reassembled.n_banks(), shadow.n_banks());
        let _ = single.shutdown();
    }

    /// The fanned top-k merge is bit-identical to the direct banked
    /// top-k at every `k`, precision, and shard count.
    #[test]
    fn sharded_top_k_bit_identical_to_direct(
        bits in 2u8..=3,
        word_len in 1usize..5,
        n_rows in 1usize..16,
        rows_per_bank in 1usize..4,
        n_shards in 1usize..5,
        precision_tag in 0u8..3,
        k in 0usize..20,
        seed in 0u64..500,
    ) {
        let precision = precision_from(precision_tag);
        let n_levels = 1usize << bits;
        let mut memory = empty_memory(bits, word_len, rows_per_bank);
        let mut shadow = empty_memory(bits, word_len, rows_per_bank);
        for i in 0..n_rows {
            let word = gen_word(word_len, n_levels, seed, i);
            memory.store(&word).expect("store");
            shadow.store(&word).expect("store");
        }
        let sharded = ShardedServer::start(memory, n_shards, serve_config(precision));
        let handle = sharded.handle();
        for salt in 0..3usize {
            let query = gen_word(word_len, n_levels, seed ^ 0x7777, salt);
            let served = handle.search_top_k(&query, k).expect("sharded top-k");
            let direct = shadow
                .search_batch_top_k_with(&[&query[..]], k, precision)
                .expect("direct top-k")
                .remove(0);
            prop_assert_eq!(served.len(), direct.len());
            for (s, d) in served.iter().zip(&direct) {
                prop_assert_eq!(s.0, d.0, "top-k row order");
                prop_assert_eq!(s.1.to_bits(), d.1.to_bits(), "top-k conductance");
            }
        }
    }

    /// Exact-tie rows deliberately straddling shard boundaries: the
    /// merged winner is the lowest global row, and the top-k order
    /// lists the tied duplicates in ascending global-row order —
    /// identical to the unpartitioned memory.
    #[test]
    fn cross_shard_ties_resolve_to_lowest_global_row(
        bits in 2u8..=3,
        word_len in 1usize..5,
        filler in 0usize..4,
        n_shards in 2usize..5,
        precision_tag in 0u8..3,
        seed in 0u64..500,
    ) {
        let precision = precision_from(precision_tag);
        let n_levels = 1usize << bits;
        // One row per bank, one bank per shard (plus filler rows):
        // storing the duplicated word first and last puts the copies
        // in the first and last shard — the tie straddles every shard
        // boundary.
        let dup = gen_word(word_len, n_levels, seed, 0);
        let mut rows = vec![dup.clone()];
        rows.extend((0..filler).map(|i| gen_word(word_len, n_levels, seed, i + 1)));
        rows.push(dup.clone());
        while rows.len() < n_shards {
            rows.push(dup.clone());
        }
        let mut memory = empty_memory(bits, word_len, 1);
        let mut shadow = empty_memory(bits, word_len, 1);
        for row in &rows {
            memory.store(row).expect("store");
            shadow.store(row).expect("store");
        }
        let expected = rows.iter().position(|r| *r == dup).expect("present");
        let sharded = ShardedServer::start(memory, n_shards, serve_config(precision));
        let handle = sharded.handle();
        let (row, g) = handle.search(&dup).expect("sharded search");
        let (drow, dg) = shadow.search_batch_winners_with(&[&dup[..]], precision).expect("direct")[0];
        prop_assert_eq!(row, expected, "tie must resolve to the lowest global row");
        prop_assert_eq!(drow, expected);
        prop_assert_eq!(g.to_bits(), dg.to_bits());
        // Top-k across the tie: ascending global row among equal
        // conductances, bit-identical to the direct merge.
        let served = handle.search_top_k(&dup, rows.len()).expect("top-k");
        let direct = shadow
            .search_batch_top_k_with(&[&dup[..]], rows.len(), precision)
            .expect("direct top-k")
            .remove(0);
        prop_assert_eq!(&served, &direct);
        for w in served.windows(2) {
            if w[0].1.to_bits() == w[1].1.to_bits() {
                prop_assert!(w[0].0 < w[1].0, "tied hits out of global-row order");
            }
        }
    }
}

/// The error half of the sharded contract: overload and shutdown fail
/// cleanly, and a deadline fanned across shards rejects dead work.
#[test]
fn sharded_rejections_fail_cleanly() {
    let mut memory = empty_memory(3, 4, 2);
    for i in 0..4u8 {
        memory.store(&[i, i, i, i]).expect("store");
    }
    let sharded = ShardedServer::start(
        memory,
        2,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(20),
            queue_capacity: Some(1),
            ..ServeConfig::default()
        },
    );
    let handle = sharded.handle();
    // Overflow the 1-slot per-shard queues from this single thread.
    let mut tickets = Vec::new();
    let mut saw_overload = false;
    for _ in 0..64 {
        match handle.submit(&[1, 2, 3, 0]) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { capacity, .. }) => {
                assert_eq!(capacity, 1);
                saw_overload = true;
                break;
            }
            Err(e) => panic!("unexpected admission error: {e:?}"),
        }
    }
    assert!(saw_overload, "capacity-1 shards never rejected");
    for t in tickets {
        t.wait().expect("admitted requests are answered");
    }
    let stats = sharded.stats();
    assert!(stats.rejected >= 1, "client-level rejection not counted");
    // Rejected fan-outs must roll their reservations back: with every
    // admitted ticket drained, the capacity-1 shards must admit fresh
    // work again (a leaked slot would reject forever here).
    sharded
        .handle()
        .search(&[1, 2, 3, 0])
        .expect("slots released after rejected fan-out");
    // Dead-on-arrival across the fan-out: a 1 ns budget expires before
    // any shard dispatcher pops the request.
    let ticket = handle
        .submit_with_deadline(&[1, 2, 3, 0], Duration::from_nanos(1))
        .expect("admitted");
    assert!(matches!(
        ticket.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let _ = sharded.shutdown();
    assert!(matches!(
        handle.search(&[1, 2, 3, 0]),
        Err(ServeError::ShuttingDown)
    ));
}
