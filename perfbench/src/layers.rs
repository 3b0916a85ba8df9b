//! Per-layer measurements of the core search stack, each a span around
//! a call into the layer's public functions, on the workload's own
//! memory and queries.

use std::time::Instant;

use femcam_core::{BankedMcam, Precision, RoutedMcam};

use crate::report::Report;
use crate::{env, stats, trace};

/// Queries per measured batch.
const BATCH: usize = 64;
/// Repeats per timed call; the median is reported.
const REPEATS: usize = 7;

/// Median time in ns of `REPEATS` calls of `f`, each recorded as a
/// span named `name`.
fn median_ns<R>(name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(trace::span(name, None, i as u64, &mut f));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples).expect("repeats > 0")
}

fn batch(queries: &[Vec<u8>]) -> Vec<&[u8]> {
    queries.iter().take(BATCH).map(Vec::as_slice).collect()
}

/// `core.exec` (one bank, batch-64 codes search) and `core.banked`
/// (bank merge, recompile after a store).
pub fn core(memory: &BankedMcam, queries: &[Vec<u8>], r: &mut Report) {
    let q = batch(queries);
    let word_len = memory.word_len();
    let per_bank = memory.rows_per_bank();

    // core.exec: a one-bank memory holding the first bank's rows.
    let mut bank = BankedMcam::new(*memory.ladder(), memory.lut().clone(), word_len, per_bank);
    for row in 0..per_bank.min(memory.n_rows()) {
        bank.store(memory.row(row).expect("row in range"))
            .expect("well-formed row");
    }
    let exec = || {
        bank.search_batch_winners_with(&q, Precision::Codes)
            .expect("search")
    };
    exec();
    let exec_ns = median_ns("core.exec", exec);
    let cells = (q.len() * bank.n_rows() * word_len) as f64;
    let ns_per_cell = exec_ns / cells;
    let plan_bytes = bank.plan_memory_bytes().codes;
    let bytes_per_cell = plan_bytes as f64 / (bank.n_rows() * word_len) as f64;
    // Roofline: copying the plan's bytes, which stay cache-resident
    // across the batch just as the kernel's reads do.
    let bandwidth = env::memcpy_bytes_per_ns(plan_bytes);
    r.set("core.exec.ns_per_cell", ns_per_cell);
    r.set("core.exec.bytes_per_cell", bytes_per_cell);
    r.set(
        "core.exec.roofline_frac",
        bytes_per_cell / ns_per_cell / bandwidth,
    );
    r.note(
        "roofline_gb_per_s",
        format!("{bandwidth:.2} ({plan_bytes} B)"),
    );
    r.note(
        "memcpy_dram_gb_per_s",
        format!("{:.2}", env::memcpy_bytes_per_ns(32 << 20)),
    );

    // core.banked merge: the full sweep minus one masked sweep per bank.
    let full = || {
        memory
            .search_batch_winners_with(&q, Precision::Codes)
            .expect("search")
    };
    full();
    let full_ns = median_ns("core.banked.search", full);
    let masked_ns: f64 = (0..memory.n_banks())
        .map(|b| {
            median_ns("core.banked.masked", || {
                memory
                    .search_batch_winners_masked(&q, Precision::Codes, &[b])
                    .expect("masked search")
            })
        })
        .sum();
    r.set(
        "core.banked.merge_ns_per_query",
        (full_ns - masked_ns) / q.len() as f64,
    );

    // core.banked recompile: one query's search right after a store
    // that completes the last bank (so that bank's plan recompiles),
    // against the same search once warm. Each repeat starts from a
    // fresh copy holding all but the last row.
    let one = &q[..1];
    let last = memory.n_rows() - 1;
    let mut first = Vec::new();
    let mut warm = Vec::new();
    for i in 0..REPEATS {
        let mut copy = BankedMcam::new(*memory.ladder(), memory.lut().clone(), word_len, per_bank);
        for row in 0..last {
            copy.store(memory.row(row).expect("row in range"))
                .expect("well-formed row");
        }
        copy.search_batch_winners_with(one, Precision::Codes)
            .expect("search");
        copy.store(memory.row(last).expect("row in range"))
            .expect("well-formed row");
        for out in [&mut first, &mut warm] {
            let t = Instant::now();
            trace::span("core.banked.after_store", None, i as u64, || {
                std::hint::black_box(copy.search_batch_winners_with(one, Precision::Codes))
            })
            .expect("search");
            out.push(t.elapsed().as_nanos() as f64);
        }
    }
    let recompile_ns =
        stats::median(&first).expect("samples") - stats::median(&warm).expect("samples");
    r.set("core.banked.recompile_us", recompile_ns / 1e3);
}

/// `core.router`: route cost, re-rank cost and banks probed.
pub fn router(routed: &RoutedMcam, queries: &[Vec<u8>], r: &mut Report) {
    let q = batch(queries);
    let route = || {
        q.iter()
            .map(|w| routed.route(w).expect("route").len())
            .sum::<usize>()
    };
    let route_ns = median_ns("core.router.route", route) / q.len() as f64;
    let search = || {
        routed
            .search_batch_winners_with(&q, Precision::Codes)
            .expect("search")
    };
    search();
    let search_ns = median_ns("core.router.search", search) / q.len() as f64;
    let probed: usize = queries
        .iter()
        .map(|w| routed.route(w).expect("route").len())
        .sum();
    r.set("core.router.route_ns_per_query", route_ns);
    r.set("core.router.rerank_ns_per_query", search_ns - route_ns);
    r.set(
        "core.router.banks_probed_mean",
        probed as f64 / queries.len() as f64,
    );
}
