//! The two served workloads: `uniform_sharded` (full sweep behind a
//! 2-shard `ShardedServer`, read-only) and `clustered_routed_rw`
//! (LSH-routed memory behind one dispatcher, with top-5 searches and
//! interleaved stores).
//!
//! Every epoch runs on a fresh deployment built from the same rows, so
//! epochs do not inherit each other's stores, and every deployment's
//! build time is a set-up sample. An untraced run is a series of short
//! cycles (a closed-loop epoch, an open-loop epoch and, on
//! `uniform_sharded`, a store epoch), and each metric is a median over
//! the cycles, so a slow stretch of the box moves a few samples rather
//! than the result.

use std::time::{Duration, Instant};

use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, Precision, RoutedMcam, RouterConfig};
use femcam_device::FefetModel;
use femcam_energy::SearchEnergyModel;
use femcam_serve::{McamServer, MemoryReport, ServeConfig, ServeStats, ShardedServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::load::{run_phase, Hits, Mix, Pace, Phase, OPEN_IN_FLIGHT};
use crate::report::Report;
use crate::{env, fewshot, layers, stats, trace};

pub const WORD_LEN: usize = 64;
pub const ROWS: usize = 4096;
pub const ROWS_PER_BANK: usize = 256;
const CLUSTERS: usize = 64;
const SHARDS: usize = 2;
const IN_FLIGHT: usize = 32;
const TOP_K: usize = 5;
/// Distinct queries each workload draws from.
const QUERY_POOL: usize = 4096;
/// Most rungs one rate-ladder walk runs.
pub const LADDER_TRIES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 4096 uniform random rows, 2 shards, read-only top-1.
    Uniform,
    /// 4096 rows around 64 centers, routed, 1 in 4 searches top-5 and
    /// 1 request in 10 a store.
    Clustered,
}

impl Kind {
    /// Fixed low rate of the open-loop latency phase (requests/s),
    /// about a quarter of the workload's closed-loop throughput on a
    /// slow 2-core box, so the batching window rather than queueing
    /// sets latency.
    fn low_rate(self) -> f64 {
        match self {
            Kind::Uniform => 5000.0,
            Kind::Clustered => 2000.0,
        }
    }

    /// Length of an open-loop epoch: [`OPEN_REQUESTS`] requests at the
    /// low rate.
    fn open_s(self) -> f64 {
        OPEN_REQUESTS / self.low_rate()
    }

    /// Length of one untraced cycle's epochs.
    fn cycle_s(self) -> f64 {
        let stores = if self == Kind::Uniform { STORE_S } else { 0.0 };
        CLOSED_S + self.open_s() + stores
    }
}

/// Closed-loop epoch of an untraced cycle, in seconds.
const CLOSED_S: f64 = 0.1;
/// `uniform_sharded`'s store epoch of an untraced cycle (closed loop,
/// 1 request in 10 a store), in seconds.
const STORE_S: f64 = 0.1;
/// Requests of an open-loop epoch.
const OPEN_REQUESTS: f64 = 600.0;
/// Fewest cycles of an untraced run, however short `--seconds`.
const MIN_CYCLES: usize = 4;
/// Client p99 limit of the rate ladder, in µs: loose enough that the
/// box's own stalls do not decide a rung, so saturation (a growing
/// backlog) does.
const P99_LIMIT_US: f64 = 20_000.0;

/// The inputs of one served workload, all drawn from the seed.
pub struct Data {
    pub kind: Kind,
    pub ladder: LevelLadder,
    pub lut: ConductanceLut,
    pub rows: Vec<Vec<u8>>,
    /// The workload's traffic.
    pub mix: Mix,
    /// Traffic of the epochs that time stores: the workload's own on
    /// `clustered_routed_rw`; on `uniform_sharded`, its reads with one
    /// request in ten a store of a fresh row, in store epochs of its
    /// own.
    pub store_mix: Mix,
}

fn random_word(rng: &mut StdRng) -> Vec<u8> {
    (0..WORD_LEN).map(|_| rng.gen_range(0..8u8)).collect()
}

fn jitter(l: u8, up: bool) -> u8 {
    if up {
        (l + 1).min(7)
    } else {
        l.saturating_sub(1)
    }
}

/// A row of cluster `center`: ±1 jitter on about a quarter of dims.
fn clustered_word(rng: &mut StdRng, center: &[u8]) -> Vec<u8> {
    center
        .iter()
        .map(|&l| {
            if rng.gen_range(0..4u8) == 0 {
                jitter(l, rng.gen::<bool>())
            } else {
                l
            }
        })
        .collect()
}

impl Data {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let ladder = LevelLadder::new(3).expect("3-bit ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, queries, words) = match kind {
            Kind::Uniform => {
                let rows: Vec<Vec<u8>> = (0..ROWS).map(|_| random_word(&mut rng)).collect();
                let queries = (0..QUERY_POOL).map(|_| random_word(&mut rng)).collect();
                let words = (0..8 * ROWS).map(|_| random_word(&mut rng)).collect();
                (rows, queries, words)
            }
            Kind::Clustered => {
                let centers: Vec<Vec<u8>> = (0..CLUSTERS).map(|_| random_word(&mut rng)).collect();
                let rows: Vec<Vec<u8>> = (0..ROWS)
                    .map(|i| clustered_word(&mut rng, &centers[i % CLUSTERS]))
                    .collect();
                // Stored rows with 3 of 64 dims jittered by ±1.
                let queries = (0..QUERY_POOL)
                    .map(|j| {
                        let mut q = rows[(j * 31) % ROWS].clone();
                        for _ in 0..3 {
                            let d = rng.gen_range(0..WORD_LEN);
                            q[d] = jitter(q[d], rng.gen::<bool>());
                        }
                        q
                    })
                    .collect();
                let words = (0..8 * ROWS)
                    .map(|i| clustered_word(&mut rng, &centers[(i * 7) % CLUSTERS]))
                    .collect();
                (rows, queries, words)
            }
        };
        let store_mix = Mix {
            seed,
            queries,
            words,
            store_share: 0.1,
            topk_share: 0.0,
            k: TOP_K,
        };
        let mix = match kind {
            Kind::Uniform => Mix {
                store_share: 0.0,
                words: Vec::new(),
                ..store_mix.clone()
            },
            Kind::Clustered => Mix {
                topk_share: 0.25,
                ..store_mix.clone()
            },
        };
        Data {
            kind,
            ladder,
            lut,
            rows,
            store_mix: if kind == Kind::Clustered {
                mix.clone()
            } else {
                store_mix
            },
            mix,
        }
    }

    fn banked(&self) -> BankedMcam {
        let mut m = BankedMcam::new(self.ladder, self.lut.clone(), WORD_LEN, ROWS_PER_BANK);
        for row in &self.rows {
            m.store(row).expect("well-formed row");
        }
        m
    }

    /// The routed memory, built with locality-aware placement.
    pub fn routed(&self) -> RoutedMcam {
        RoutedMcam::build(
            self.ladder,
            self.lut.clone(),
            WORD_LEN,
            ROWS_PER_BANK,
            RouterConfig::default(),
            &self.rows,
        )
        .expect("well-formed rows")
        .0
    }

    /// A direct (unserved) copy of what a deployment serves.
    fn shadow(&self) -> Shadow {
        match self.kind {
            Kind::Uniform => Shadow::Banked(self.banked()),
            Kind::Clustered => Shadow::Routed(self.routed()),
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        precision: Precision::Codes,
        ..ServeConfig::default()
    }
}

/// The direct searches a deployment's answers must equal.
enum Shadow {
    Banked(BankedMcam),
    Routed(RoutedMcam),
}

impl Shadow {
    fn store(&mut self, word: &[u8]) -> usize {
        match self {
            Shadow::Banked(m) => m.store(word),
            Shadow::Routed(m) => m.store(word),
        }
        .expect("shadow store")
    }

    fn top1(&self, queries: &[&[u8]]) -> Vec<(usize, f64)> {
        match self {
            Shadow::Banked(m) => m.search_batch_winners_with(queries, Precision::Codes),
            Shadow::Routed(m) => m.search_batch_winners_with(queries, Precision::Codes),
        }
        .expect("shadow search")
    }

    fn top_k(&self, queries: &[&[u8]]) -> Vec<Hits> {
        match self {
            Shadow::Banked(m) => m.search_batch_top_k_with(queries, TOP_K, Precision::Codes),
            Shadow::Routed(m) => m.search_batch_top_k_with(queries, TOP_K, Precision::Codes),
        }
        .expect("shadow top-k")
    }

    /// The exact full-sweep winners.
    fn exact(&self, queries: &[&[u8]]) -> Vec<(usize, f64)> {
        match self {
            Shadow::Banked(_) => self.top1(queries),
            Shadow::Routed(m) => m
                .memory()
                .search_batch_winners_with(queries, Precision::Codes)
                .expect("shadow full sweep"),
        }
    }

    /// Banks a search for `query` sweeps.
    fn banks(&self, query: &[u8]) -> usize {
        match self {
            Shadow::Banked(m) => m.n_banks(),
            Shadow::Routed(m) => m.route(query).expect("route").len(),
        }
    }
}

/// A running server over the workload's memory.
enum Deployment {
    Sharded(ShardedServer),
    Routed(McamServer),
}

impl Deployment {
    /// Builds the memory, starts the server and warms every bank's plan
    /// with one search per bank; returns the deployment and the time
    /// that took.
    fn start(data: &Data) -> (Self, Duration) {
        let t = Instant::now();
        let (dep, warm): (Deployment, Vec<Vec<u8>>) = match data.kind {
            Kind::Uniform => {
                let memory = data.banked();
                let warm = bank_heads(&memory);
                (
                    Deployment::Sharded(ShardedServer::start(memory, SHARDS, serve_config())),
                    warm,
                )
            }
            Kind::Clustered => {
                let routed = data.routed();
                let warm = bank_heads(routed.memory());
                (
                    Deployment::Routed(McamServer::start_routed(routed, serve_config())),
                    warm,
                )
            }
        };
        for q in &warm {
            let ok = match &dep {
                Deployment::Sharded(s) => s.handle().search(q).is_ok(),
                Deployment::Routed(s) => s.handle().search(q).is_ok(),
            };
            assert!(ok, "warm-up search failed");
        }
        (dep, t.elapsed())
    }

    fn run(
        &self,
        mix: &Mix,
        seq: &mut u64,
        pace: Pace,
        dur: Duration,
        cap: Option<usize>,
    ) -> Phase {
        match self {
            Deployment::Sharded(s) => run_phase(&s.handle(), mix, seq, pace, dur, cap),
            Deployment::Routed(s) => run_phase(&s.handle(), mix, seq, pace, dur, cap),
        }
    }

    /// Each dispatcher's own statistics, and client-level rejections.
    fn shard_stats(&self) -> (Vec<ServeStats>, u64) {
        match self {
            Deployment::Sharded(s) => {
                let st = s.stats();
                (st.per_shard, st.rejected)
            }
            Deployment::Routed(s) => {
                let st = s.stats();
                (vec![st], st.rejected)
            }
        }
    }

    fn memory_report(&self) -> MemoryReport {
        match self {
            Deployment::Sharded(s) => s.memory_report(),
            Deployment::Routed(s) => s.memory_report(),
        }
        .expect("live server reports memory")
    }

    /// In-flight searches at which a ladder rung sheds: half the
    /// smallest admission capacity, and no more than an open loop keeps
    /// in flight, so an overloaded rung sheds before anything is
    /// rejected and before the generator would block.
    fn backlog_cap(&self) -> usize {
        let (per_shard, _) = self.shard_stats();
        let cap = per_shard
            .iter()
            .map(|s| s.queue_capacity)
            .min()
            .unwrap_or(OPEN_IN_FLIGHT);
        (cap / 2).min(OPEN_IN_FLIGHT)
    }
}

/// The first row of every bank: one warm-up search per bank.
fn bank_heads(memory: &BankedMcam) -> Vec<Vec<u8>> {
    (0..memory.n_banks())
        .filter_map(|b| memory.row(b * memory.rows_per_bank()).map(<[u8]>::to_vec))
        .collect()
}

/// One phase on its own deployment, with the deployment's statistics
/// taken when the phase ended.
struct Epoch {
    /// The phase; its answers are dropped once checked.
    phase: Phase,
    /// Share of the box's CPU time the hypervisor stole while the phase
    /// ran.
    steal: f64,
    stats: Vec<ServeStats>,
    client_rejected: u64,
    replay: Replay,
}

struct Runner<'a> {
    data: &'a Data,
    setups: Vec<f64>,
    epochs: Vec<Epoch>,
    /// `uniform_sharded`: direct answers for the whole query pool.
    pool_answers: Option<Vec<(usize, f64)>>,
    problems: Vec<String>,
    /// The first errors of epochs where requests failed.
    errors: Vec<String>,
    /// Time spent checking answers, outside every measured window.
    verify_s: f64,
    /// Resident plan bytes of a deployment right after set-up.
    warm_plan_bytes: usize,
}

impl<'a> Runner<'a> {
    fn new(data: &'a Data) -> Self {
        Runner {
            data,
            setups: Vec::new(),
            epochs: Vec::new(),
            pool_answers: None,
            problems: Vec::new(),
            errors: Vec::new(),
            verify_s: 0.0,
            warm_plan_bytes: 0,
        }
    }

    fn deploy(&mut self) -> Deployment {
        let (dep, took) = Deployment::start(self.data);
        self.setups.push(took.as_secs_f64());
        if self.warm_plan_bytes == 0 {
            self.warm_plan_bytes = dep.memory_report().resident_bytes();
        }
        dep
    }

    /// Runs one phase on a fresh deployment, then checks its answers
    /// (outside the measured window, counting recall and energy when
    /// `recall` is set); returns its index.
    fn epoch(&mut self, mix: &Mix, pace: Pace, dur: Duration, recall: bool) -> usize {
        self.run_epoch(mix, recall, |dep, seq| dep.run(mix, seq, pace, dur, None))
    }

    /// Deploys, runs `run` against the deployment with the epoch's
    /// first request number, and checks every answer (counting recall
    /// and energy when `recall` is set).
    fn run_epoch(
        &mut self,
        mix: &Mix,
        recall: bool,
        run: impl FnOnce(&Deployment, &mut u64) -> Phase,
    ) -> usize {
        let dep = self.deploy();
        // Each epoch draws its requests from its own range of the
        // traffic stream, so what an epoch sends does not depend on how
        // many requests the epochs before it sent.
        let mut seq = (self.epochs.len() as u64 + 1) << 32;
        let jiffies = env::cpu_jiffies();
        let mut phase = run(&dep, &mut seq);
        let steal = env::steal_since(jiffies);
        let (stats, client_rejected) = dep.shard_stats();
        drop(dep);
        let t = Instant::now();
        let replay = self.verify(mix, &phase, recall);
        self.verify_s += t.elapsed().as_secs_f64();
        // A failed request (say, rejected by admission control while the
        // box stalls) is counted in `failed`, not as a wrong answer.
        if !phase.errors.is_empty() {
            self.errors.push(format!(
                "epoch {}: {} failed: {:?}",
                self.epochs.len(),
                phase.failed,
                phase.errors
            ));
        }
        phase.searches = Vec::new();
        phase.stores = Vec::new();
        self.epochs.push(Epoch {
            phase,
            steal,
            stats,
            client_rejected,
            replay,
        });
        self.epochs.len() - 1
    }

    /// One ladder rung: [`RUNG_WINDOWS`] consecutive open-loop windows
    /// at `rate` on one deployment. The rung passes when most windows
    /// pass the ladder rule, so one stall of the box fails one window.
    fn rung(&mut self, rate: f64, dur: Duration, p99s: &mut Vec<String>) -> bool {
        // Enough requests per window for a supported p99.
        let window = (dur / RUNG_WINDOWS as u32).max(Duration::from_secs_f64(1500.0 / rate));
        let mut passed = 0;
        self.run_epoch(&self.data.mix, false, |dep, seq| {
            let cap = dep.backlog_cap();
            let mut all = Phase::default();
            for _ in 0..RUNG_WINDOWS {
                let p = dep.run(&self.data.mix, seq, Pace::Open(rate), window, Some(cap));
                let result = stats::Rung {
                    sent: p.attempted,
                    p99_us: stats::supported_p99(&p.search_us),
                    rejected: p.failed,
                    backlog_mid: p.backlog_mid,
                    backlog_end: p.backlog_end,
                    shed: p.shed,
                };
                p99s.push(format!(
                    "{rate:.0}:{:.0}",
                    result.p99_us.unwrap_or(f64::NAN)
                ));
                passed += usize::from(stats::rung_passes(&result, P99_LIMIT_US));
                all.absorb(p);
            }
            all
        });
        2 * passed > RUNG_WINDOWS
    }

    fn phase(&self, i: usize) -> &Phase {
        &self.epochs[i].phase
    }

    /// The rate ladder, at most `max_tries` rungs of `rung` each within
    /// `budget`, from the rung just below `start_rate`. Returns the
    /// highest passing rate.
    fn ladder(
        &mut self,
        start_rate: f64,
        rung: Duration,
        max_tries: usize,
        budget: Duration,
        r: &mut Report,
    ) -> f64 {
        let mut p99s = Vec::new();
        let start = stats::ladder_index_below(start_rate);
        let runs = stats::walk_ladder(start, max_tries, budget, |rate| {
            self.rung(rate, rung, &mut p99s)
        });
        r.note("ladder", stats::describe_ladder(&runs));
        r.note("ladder_p99_us", p99s.join(" "));
        ladder_result(&runs, r)
    }

    /// The share of `epochs` during which the least CPU was stolen.
    fn calm(&self, epochs: &[usize]) -> Vec<usize> {
        let steal: Vec<f64> = epochs.iter().map(|&e| self.epochs[e].steal).collect();
        stats::calm_windows(&steal)
            .into_iter()
            .map(|i| epochs[i])
            .collect()
    }

    fn median_of(&self, epochs: &[usize], f: impl Fn(&Epoch) -> f64) -> f64 {
        stats::median(
            &epochs
                .iter()
                .map(|&e| f(&self.epochs[e]))
                .collect::<Vec<_>>(),
        )
        .expect("at least one epoch")
    }

    /// One sample series of several epochs, in run order.
    fn samples(&self, epochs: &[usize], f: impl Fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
        epochs
            .iter()
            .flat_map(|&e| f(&self.epochs[e].phase).iter().copied())
            .collect()
    }

    fn counts(&self, r: &mut Report) {
        for e in &self.epochs {
            r.attempted += e.phase.attempted as u64;
            r.failed += e.phase.failed as u64;
        }
    }
}

/// Searches per epoch that recall and modeled energy count: a prefix
/// of the epoch's requests, so both depend on the seed only.
const RECALL_PREFIX: usize = 3000;

/// What replaying the served answers against a shadow found.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    /// Searches checked.
    checked: usize,
    /// Searches counted for recall and energy.
    counted: usize,
    /// Served top-1 equal to the exact full-sweep winner.
    exact_top1: usize,
    /// Banks swept, summed over the checked searches.
    banks: usize,
}

fn same(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

impl Runner<'_> {
    /// Checks every answer of `phase` bit for bit against direct
    /// searches on a shadow that replays the phase's stores in order.
    /// With `recall` off (ladder rungs), only the gate runs: no exact
    /// full sweep and no bank count.
    fn verify(&mut self, mix: &Mix, phase: &Phase, recall: bool) -> Replay {
        let data = self.data;
        let mut out = Replay::default();
        if data.kind == Kind::Uniform && phase.stores.is_empty() {
            // Read-only full sweeps: one batch answers the whole pool.
            let want = self.pool_answers.get_or_insert_with(|| {
                let pool: Vec<&[u8]> = mix.queries.iter().map(Vec::as_slice).collect();
                data.shadow().top1(&pool)
            });
            for (seq, q, _, hits) in &phase.searches {
                out.checked += 1;
                let ok = same(hits, &[want[*q]]);
                if recall && out.counted < RECALL_PREFIX {
                    out.counted += 1;
                    out.banks += ROWS / ROWS_PER_BANK;
                    out.exact_top1 += usize::from(ok);
                }
                if !ok {
                    self.problems.push(format!(
                        "request {seq}: served {hits:?}, direct {:?}",
                        want[*q]
                    ));
                }
            }
            return out;
        }
        let mut shadow = data.shadow();
        let mut segment: Vec<&(u64, usize, usize, Hits)> = Vec::new();
        let mut stores = phase.stores.iter().peekable();
        let mut searches = phase.searches.iter().peekable();
        loop {
            let next_store = stores.peek().map(|s| s.0);
            match searches.peek().map(|s| s.0) {
                Some(a) if next_store.is_none_or(|b| a < b) => {
                    segment.push(searches.next().expect("peeked"));
                }
                _ => {
                    check_segment(mix, &shadow, &segment, recall, &mut out, &mut self.problems);
                    segment.clear();
                    let Some(&(seq, word, row)) = stores.next() else {
                        break;
                    };
                    let direct = shadow.store(&mix.words[word]);
                    if direct != row {
                        self.problems.push(format!(
                            "store {seq}: served row {row}, direct row {direct}"
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Checks a run of searches that saw the same memory contents.
fn check_segment(
    mix: &Mix,
    shadow: &Shadow,
    segment: &[&(u64, usize, usize, Hits)],
    recall: bool,
    out: &mut Replay,
    problems: &mut Vec<String>,
) {
    if segment.is_empty() {
        return;
    }
    let queries: Vec<&[u8]> = segment
        .iter()
        .map(|s| mix.queries[s.1].as_slice())
        .collect();
    let top1: Vec<usize> = (0..segment.len()).filter(|&i| segment[i].2 <= 1).collect();
    let topk: Vec<usize> = (0..segment.len()).filter(|&i| segment[i].2 > 1).collect();
    let pick = |idx: &[usize]| idx.iter().map(|&i| queries[i]).collect::<Vec<_>>();
    let direct1 = shadow.top1(&pick(&top1));
    let directk = if topk.is_empty() {
        Vec::new()
    } else {
        shadow.top_k(&pick(&topk))
    };
    let mut check = |i: usize, want: &[(usize, f64)]| {
        let (seq, _, _, hits) = segment[i];
        if !same(hits, want) {
            problems.push(format!("request {seq}: served {hits:?}, direct {want:?}"));
        }
    };
    for (&i, w) in top1.iter().zip(&direct1) {
        check(i, &[*w]);
    }
    for (&i, w) in topk.iter().zip(&directk) {
        check(i, w);
    }
    out.checked += segment.len();
    let counted = if recall {
        segment.len().min(RECALL_PREFIX - out.counted)
    } else {
        0
    };
    if counted > 0 {
        let exact = shadow.exact(&queries[..counted]);
        for (i, s) in segment[..counted].iter().enumerate() {
            out.banks += shadow.banks(queries[i]);
            if s.3.first().map(|h| h.0) == Some(exact[i].0) {
                out.exact_top1 += 1;
            }
        }
        out.counted += counted;
    }
}

/// The highest passing rate of a ladder walk; when no rung passed, the
/// lowest rung run, as an upper bound.
pub fn ladder_result(runs: &[(usize, bool)], r: &mut Report) -> f64 {
    stats::max_rate(runs).unwrap_or_else(|| {
        r.note("ladder_warning", "no rung passed");
        stats::ladder_rate(runs.iter().map(|&(i, _)| i).min().unwrap_or(0))
    })
}

/// Modeled MCAM search energy of one cell, in fJ.
pub fn cell_energy_fj(ladder: &LevelLadder) -> f64 {
    SearchEnergyModel::default().mcam_cell_search(ladder) * 1e15
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Runs a served workload for about `seconds` of measurement.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Report {
    let data = Data::new(kind, seed);
    let mut r = Report::default();
    let mut runner = Runner::new(&data);
    // Recall and energy come from the open-loop epochs only, whose
    // requests follow from the seed alone.
    let fixed = if traced {
        run_traced(&mut runner, seed, seconds, &mut r)
    } else {
        run_untraced(&mut runner, seconds, &mut r)
    };
    runner.counts(&mut r);
    r.problems.append(&mut runner.problems);
    if !runner.errors.is_empty() {
        r.note("errors", runner.errors.join("; "));
    }
    let checked: usize = runner.epochs.iter().map(|e| e.replay.checked).sum();
    r.check(checked > 0, || "no search was answered".into());
    r.note("searches_checked", checked);
    r.note("verify_s", format!("{:.2}", runner.verify_s));
    let sum = |f: fn(&Replay) -> usize| {
        fixed
            .iter()
            .map(|&e| f(&runner.epochs[e].replay))
            .sum::<usize>() as f64
    };
    let n = sum(|x| x.counted).max(1.0);
    let banks = sum(|x| x.banks) / n;
    r.set("recall_top1", sum(|x| x.exact_top1) / n);
    r.set(
        "modeled_energy_fj_per_query",
        banks * (ROWS_PER_BANK * WORD_LEN) as f64 * cell_energy_fj(&data.ladder),
    );
    r.note("banks_per_query", format!("{banks:.3}"));
    r
}

/// Sets the metric `p50` from `samples` (µs) as the median over
/// windows of each window's p50, and notes their p99 the same way under
/// `p99`. The p99 is context, not a bounded metric: on a shared box a
/// tail moves from run to run by more than any bound allows. Too few
/// samples for a windowed p99 leave the plain median as the p50.
pub fn set_latency(
    r: &mut Report,
    p50: &'static str,
    p99: &str,
    samples: &[f64],
    max_windows: usize,
) {
    let n = samples.len();
    match stats::windowed(samples, max_windows) {
        Some((m, t, windows)) => {
            r.set(p50, m);
            r.note(p99, format!("{t:.1} us (n={n}, windows={windows})"));
        }
        None => match stats::median(samples) {
            Some(m) => {
                r.set(p50, m);
                r.note(p99, format!("unsupported (n={n})"));
            }
            None => r.problems.push(format!("{p50}: no samples")),
        },
    }
}

/// Windows per ladder rung.
const RUNG_WINDOWS: usize = 5;

fn run_untraced(runner: &mut Runner, seconds: f64, r: &mut Report) -> Vec<usize> {
    let data = runner.data;
    let kind = data.kind;
    let cycles = ((seconds / kind.cycle_s()) as usize).max(MIN_CYCLES);
    let (mut closed, mut open, mut stores) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..cycles {
        closed.push(runner.epoch(&data.mix, Pace::Closed(IN_FLIGHT), secs(CLOSED_S), false));
        // Recall and energy come from the open epochs only: their
        // requests follow from the seed alone, whatever the box's speed.
        open.push(runner.epoch(
            &data.mix,
            Pace::Open(kind.low_rate()),
            secs(kind.open_s()),
            true,
        ));
        if kind == Kind::Uniform {
            stores.push(runner.epoch(
                &data.store_mix,
                Pace::Closed(IN_FLIGHT),
                secs(STORE_S),
                false,
            ));
        }
    }
    // Before the statistics add memory of their own.
    r.set("peak_rss_mb", env::peak_rss_mb());
    r.note("cycles", cycles);
    // Each metric comes from the share of its epochs in which the
    // hypervisor stole the least CPU time.
    let recall_epochs = open.clone();
    let all = (closed.len(), open.len(), stores.len());
    let (closed, open, stores) = (
        runner.calm(&closed),
        runner.calm(&open),
        runner.calm(&stores),
    );
    let most = [&closed, &open, &stores]
        .iter()
        .flat_map(|set| set.iter().map(|&e| runner.epochs[e].steal))
        .fold(0.0, f64::max);
    r.note(
        "calm_epochs",
        format!(
            "closed {}/{}, open {}/{}, stores {}/{}, steal <= {most:.3}",
            closed.len(),
            all.0,
            open.len(),
            all.1,
            stores.len(),
            all.2
        ),
    );
    r.set(
        "throughput_qps",
        runner.median_of(&closed, |e| e.phase.search_rate()),
    );
    r.set("plan_mb", runner.warm_plan_bytes as f64 / 1e6);
    set_latency(
        r,
        "latency_p50_us",
        "latency_p99_us",
        &runner.samples(&open, |p| &p.search_us),
        open.len(),
    );
    let lag = runner.samples(&open, |p| &p.lag_us);
    if let Some(lag) = stats::percentile(&stats::sorted(&lag), 0.99) {
        r.note("open_gen_lag_p99_us", format!("{lag:.1}"));
    }
    // Stores are timed under the closed loop, behind a batch in flight:
    // at the low rate their time depends on whether the dispatcher was
    // asleep, and their p50 moved by a third from run to run.
    // `clustered_routed_rw` times the stores of its own traffic.
    let store_epochs = match kind {
        Kind::Uniform => stores,
        Kind::Clustered => closed,
    };
    set_latency(
        r,
        "store_p50_us",
        "store_p99_us",
        &runner.samples(&store_epochs, |p| &p.store_us),
        store_epochs.len(),
    );
    r.set(
        "setup_s",
        stats::median(&runner.setups).expect("set-up samples"),
    );
    r.note("setup_samples", runner.setups.len());
    recall_epochs
}

fn run_traced(runner: &mut Runner, seed: u64, seconds: f64, r: &mut Report) -> Vec<usize> {
    let data = runner.data;
    let kind = data.kind;
    let plain = runner.epoch(
        &data.mix,
        Pace::Closed(IN_FLIGHT),
        secs(0.15 * seconds),
        false,
    );
    let plain_rate = runner.phase(plain).search_rate();
    trace::enable(true);
    let closed = runner.epoch(
        &data.mix,
        Pace::Closed(IN_FLIGHT),
        secs(0.15 * seconds),
        false,
    );
    let open = runner.epoch(
        &data.mix,
        Pace::Open(kind.low_rate()),
        secs(0.15 * seconds),
        true,
    );
    if kind == Kind::Uniform {
        runner.epoch(
            &data.store_mix,
            Pace::Closed(IN_FLIGHT),
            secs(0.05 * seconds),
            false,
        );
    }
    trace::enable(false);
    let spans = trace::take();
    let traced_rate = runner.phase(closed).search_rate();
    r.set("bench.trace_overhead_frac", 1.0 - traced_rate / plain_rate);
    // Saturation, untraced: the rate ladder from the closed-loop rate.
    let max_rate = runner.ladder(
        plain_rate,
        secs(0.05 * seconds),
        LADDER_TRIES,
        secs(0.25 * seconds),
        r,
    );
    r.set("bench.max_rate_qps", max_rate);
    let lag = stats::sorted(&runner.phase(open).lag_us);
    r.set(
        "bench.gen_lag_p99_us",
        stats::percentile(&lag, 0.99).unwrap_or(0.0),
    );

    let submit = trace::durations_ns(&spans, "serve.submit");
    r.set("serve.submit_ns", stats::median(&submit).unwrap_or(0.0));
    let stores = trace::durations_ns(&spans, "serve.store");
    r.set(
        "serve.store_us",
        stats::median(&stores).unwrap_or(0.0) / 1e3,
    );
    r.note("stores_traced", stores.len());

    // Dispatcher statistics of the traced closed and open phases.
    let shards: Vec<&ServeStats> = [closed, open]
        .iter()
        .flat_map(|&e| runner.epochs[e].stats.iter())
        .collect();
    let batches: u64 = shards.iter().map(|s| s.batches).sum();
    let batch_sum: f64 = shards.iter().map(|s| s.mean_batch * s.batches as f64).sum();
    r.set("serve.batch_mean", batch_sum / batches.max(1) as f64);
    let executed: u64 = shards.iter().map(|s| s.queries).sum();
    let exec_sum: f64 = shards
        .iter()
        .map(|s| s.mean_exec_us_per_query * s.queries as f64)
        .sum();
    r.set("serve.exec_us_per_query", exec_sum / executed.max(1) as f64);
    r.set(
        "serve.rejected",
        [closed, open]
            .iter()
            .map(|&e| runner.epochs[e].client_rejected)
            .sum::<u64>() as f64,
    );
    let open_stats = &runner.epochs[open].stats;
    r.set(
        "serve.wait_p99_us",
        open_stats.iter().map(|s| s.p99_wait_us).fold(0.0, f64::max),
    );
    for (i, s) in open_stats.iter().enumerate() {
        r.note(
            &format!("shard{i}"),
            format!(
                "queries={} batches={} mean_batch={:.2} p50_wait_us={:.0} p99_wait_us={:.0} exec_us_per_query={:.2} rejected={}",
                s.queries, s.batches, s.mean_batch, s.p50_wait_us, s.p99_wait_us, s.mean_exec_us_per_query, s.rejected
            ),
        );
    }
    // Shard layer: slowest over fastest shard's exec time, and the
    // client latency the worst shard's wait plus batch exec leaves
    // unexplained (fan-out, merge and reaping).
    let exec_total: Vec<f64> = open_stats
        .iter()
        .map(|s| s.mean_exec_us_per_query * s.queries as f64)
        .collect();
    let (lo, hi) = exec_total
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    r.set("serve.shard.exec_skew", hi / lo.max(f64::MIN_POSITIVE));
    let worst_shard_us = open_stats
        .iter()
        .map(|s| s.p50_wait_us + s.mean_exec_us_per_query * s.mean_batch)
        .fold(0.0, f64::max);
    let client_p50 = stats::median(&runner.phase(open).search_us).unwrap_or(0.0);
    r.set("serve.shard.unattributed_us", client_p50 - worst_shard_us);

    // Layer ladder on the workload's own memory and queries.
    let queries = &runner.data.mix.queries;
    match kind {
        Kind::Uniform => {
            let memory = runner.data.banked();
            let fixture = Data::new(Kind::Clustered, seed);
            let routed = fixture.routed();
            layers::core(&memory, queries, r);
            layers::router(&routed, &fixture.mix.queries, r);
        }
        Kind::Clustered => {
            let routed = runner.data.routed();
            layers::router(&routed, queries, r);
            layers::core(routed.memory(), queries, r);
        }
    }
    fewshot::episode_layers(seed, secs(0.1 * seconds), r);
    vec![open]
}
