//! `fewshot_20w1s`: the paper's Fig. 7 protocol, 20-way 1-shot, on
//! `PrototypeFeatureModel::paper_default` features through the served
//! MCAM backend, rebuilt from the public episode pieces
//! (`EpisodeSampler::sample`, `Backend::build_index`, `NnIndex::add`,
//! `NnIndex::query_batch`) so each can be timed.

use std::time::{Duration, Instant};

use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, Precision};
use femcam_data::{ClassFeatureSource, PrototypeFeatureModel};
use femcam_device::FefetModel;
use femcam_mann::{evaluate, Backend, EpisodeSampler, EvalConfig, FewShotTask};

use crate::load::mix64;
use crate::report::Report;
use crate::served::{self, Kind};
use crate::{env, stats, trace};

const BITS: u8 = 3;
/// Searches per episode: 20 classes × 5 queries.
const QUERIES_PER_EPISODE: usize = 100;
/// Client p99 limit of the episode-rate ladder, in µs.
const P99_LIMIT_US: f64 = 20_000.0;
/// Rows per bank of the served backend's memory.
const ROWS_PER_BANK: usize = 256;
/// Seconds of one window of back-to-back episodes; a set-up follows
/// each window.
const WINDOW_S: f64 = 0.25;
/// Fewest windows of an untraced run, however short `--seconds`.
const MIN_WINDOWS: usize = 4;
/// Episodes per second the episode record is sized for: ten times what
/// a 2-core Xeon box runs.
const MAX_EPISODES_PER_S: f64 = 4000.0;

fn task() -> FewShotTask {
    FewShotTask::new(20, 1)
}

/// The evaluation loop of `femcam_mann::evaluate`, one episode at a
/// time: the same source, calibration set and sampler, drawn in the
/// same order, so its accuracies match `evaluate` episode for episode.
struct EpisodeLoop {
    source: PrototypeFeatureModel,
    calibration: Vec<Vec<f32>>,
    sampler: EpisodeSampler,
    model: FefetModel,
    seed: u64,
    done: u64,
}

/// What one episode produced and how long its parts took (ns).
struct Episode {
    accuracy: f64,
    /// Hash of every query's `(row, score bits)` answer, in order: the
    /// gate compares it with the direct backend's, and keeping a hash
    /// rather than the answers keeps the benchmark's own memory flat.
    answers: u64,
    add_ns: Vec<f64>,
    sample_ns: f64,
    build_ns: f64,
    query_ns: f64,
    total_ns: f64,
}

impl EpisodeLoop {
    fn new(seed: u64) -> Self {
        let mut source = PrototypeFeatureModel::paper_default(seed);
        let cfg = EvalConfig::new(task(), 0, seed);
        // The calibration draw of `evaluate`: one-way one-shot episodes
        // from a sampler keyed off the seed.
        let mut cal_sampler =
            EpisodeSampler::new(1, 1, 1, cfg.class_pool, seed ^ 0xCA11_B8A7_E000_0000);
        let calibration = (0..cfg.n_calibration.max(2))
            .map(|_| cal_sampler.sample(&mut source).support.remove(0).0)
            .collect();
        let t = task();
        EpisodeLoop {
            source,
            calibration,
            sampler: EpisodeSampler::new(t.n_way, t.k_shot, t.n_query, cfg.class_pool, seed),
            model: FefetModel::default(),
            seed,
            done: 0,
        }
    }

    fn next(&mut self, backend: &Backend) -> Episode {
        let start = Instant::now();
        let e = self.done;
        self.done += 1;
        let episode = trace::span("data.sample", Some("mann.episode"), e, || {
            self.sampler.sample(&mut self.source)
        });
        let sampled = Instant::now();
        let cal: Vec<&[f32]> = self.calibration.iter().map(Vec::as_slice).collect();
        let dims = self.source.dims();
        let seed = self.seed.wrapping_add(e).wrapping_mul(0x9E37_79B9);
        let mut index = trace::span("serve.nn.build_index", Some("mann.episode"), e, || {
            backend.build_index(&cal, dims, seed, &self.model)
        })
        .expect("index builds");
        let built = Instant::now();
        let add_ns = episode
            .support
            .iter()
            .map(|(f, l)| {
                let t = Instant::now();
                trace::span("serve.nn.add", Some("mann.episode"), e, || index.add(f, *l))
                    .expect("support row stores");
                t.elapsed().as_nanos() as f64
            })
            .collect();
        let refs: Vec<&[f32]> = episode.queries.iter().map(|(f, _)| f.as_slice()).collect();
        let t = Instant::now();
        let results = trace::span("serve.nn.query_batch", Some("mann.episode"), e, || {
            index.query_batch(&refs)
        })
        .expect("queries answer");
        let query_ns = t.elapsed().as_nanos() as f64;
        drop(index);
        trace::record("mann.episode", None, e, start);
        let correct = results
            .iter()
            .zip(&episode.queries)
            .filter(|(r, (_, l))| r.label == *l)
            .count();
        Episode {
            accuracy: correct as f64 / episode.queries.len() as f64,
            answers: results.iter().fold(0, |h, r| {
                mix64(h ^ mix64(r.index as u64) ^ r.score.to_bits())
            }),
            add_ns,
            sample_ns: sampled.duration_since(start).as_nanos() as f64,
            build_ns: built.duration_since(sampled).as_nanos() as f64,
            query_ns,
            total_ns: start.elapsed().as_nanos() as f64,
        }
    }
}

fn served_backend() -> Backend {
    Backend::mcam_served(BITS)
}

/// Episodes run back to back for `dur`.
fn closed_loop(lp: &mut EpisodeLoop, dur: Duration, out: &mut Vec<Episode>) -> Duration {
    let backend = served_backend();
    let t = Instant::now();
    while t.elapsed() < dur {
        out.push(lp.next(&backend));
    }
    t.elapsed()
}

/// One open-loop rung: episodes due at `rate` per second for `dur`,
/// each timed from when it was due.
fn rung(lp: &mut EpisodeLoop, rate: f64, dur: Duration, out: &mut Vec<Episode>) -> stats::Rung {
    let backend = served_backend();
    let planned = (rate * dur.as_secs_f64()).ceil() as usize;
    let start = Instant::now();
    let mut lat = Vec::with_capacity(planned);
    let mut rung = stats::Rung {
        sent: 0,
        p99_us: None,
        rejected: 0,
        backlog_mid: 0,
        backlog_end: 0,
        shed: 0,
    };
    // Episodes due by now but not yet started.
    let behind =
        |done: usize| ((start.elapsed().as_secs_f64() * rate) as usize + 1).saturating_sub(done);
    for i in 0..planned {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due > Instant::now() {
            std::thread::sleep(due - Instant::now());
        }
        if i == planned / 2 {
            rung.backlog_mid = behind(i);
        }
        out.push(lp.next(&backend));
        lat.push(Instant::now().duration_since(due).as_nanos() as f64 / 1e3);
        rung.sent += 1;
        if behind(i + 1) > 50 {
            // Hopelessly behind: the rest of the rung is shed.
            rung.shed = planned - rung.sent;
            break;
        }
    }
    rung.backlog_end = behind(rung.sent);
    rung.p99_us = stats::supported_p99(&lat).or_else(|| {
        // A rung of fewer than 1000 episodes has no supported p99; its
        // highest supported percentile stands in for it.
        let s = stats::sorted(&lat);
        stats::highest_supported(s.len()).and_then(|q| stats::percentile(&s, q))
    });
    rung
}

/// The episode-rate ladder from `rate` episodes/s, within `seconds`;
/// returns the highest passing rate in queries per second.
fn ladder(
    lp: &mut EpisodeLoop,
    rate: f64,
    seconds: f64,
    eps: &mut Vec<Episode>,
    r: &mut Report,
) -> f64 {
    let rung_dur = Duration::from_secs_f64(0.15 * seconds);
    let start = stats::ladder_index_below(rate * QUERIES_PER_EPISODE as f64);
    let budget = Duration::from_secs_f64(seconds);
    let runs = stats::walk_ladder(start, served::LADDER_TRIES, budget, |q_rate| {
        let result = rung(lp, q_rate / QUERIES_PER_EPISODE as f64, rung_dur, eps);
        stats::rung_passes(&result, P99_LIMIT_US)
    });
    r.note("ladder", stats::describe_ladder(&runs));
    served::ladder_result(&runs, r)
}

/// Per-layer metrics of the episode loop, for `dur` of traced episodes.
pub fn episode_layers(seed: u64, dur: Duration, r: &mut Report) {
    let mut lp = EpisodeLoop::new(seed);
    let mut eps = Vec::new();
    let was = trace::enabled();
    trace::enable(true);
    closed_loop(&mut lp, dur, &mut eps);
    trace::enable(was);
    trace::flush();
    layer_metrics(&eps, r);
}

fn layer_metrics(eps: &[Episode], r: &mut Report) {
    let med = |f: &dyn Fn(&Episode) -> f64| {
        stats::median(&eps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0) / 1e3
    };
    r.set_default("data.sample_us", med(&|e| e.sample_ns));
    r.set_default("serve.nn.build_index_us", med(&|e| e.build_ns));
    r.set_default("serve.nn.query_batch_us", med(&|e| e.query_ns));
    let adds: Vec<f64> = eps.iter().flat_map(|e| e.add_ns.iter().copied()).collect();
    r.set_default("serve.nn.add_us", stats::median(&adds).unwrap_or(0.0) / 1e3);
    let query: f64 = eps.iter().map(|e| e.query_ns).sum();
    let total: f64 = eps.iter().map(|e| e.total_ns).sum();
    r.set_default("mann.search_share", query / total.max(1.0));
}

/// Resident plan bytes of one episode's served memory: plan size
/// depends on geometry and precision, not on the stored values.
fn episode_plan_bytes(rows: usize, dims: usize) -> usize {
    let ladder = LevelLadder::new(BITS).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut memory = BankedMcam::new(ladder, lut, dims, ROWS_PER_BANK);
    for i in 0..rows {
        memory
            .store(&vec![(i % 8) as u8; dims])
            .expect("well-formed row");
    }
    let queries: Vec<Vec<u8>> = (0..QUERIES_PER_EPISODE)
        .map(|i| vec![(i % 8) as u8; dims])
        .collect();
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    memory
        .search_batch_winners_with(&refs, Precision::F64)
        .expect("search");
    memory.plan_memory_bytes().total()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut r = Report::default();
    // Set-up: feature source, calibration set and one warm episode. The
    // loop of the first set-up is the one measured; further set-ups,
    // spread through the run, only add samples.
    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let mut lp = EpisodeLoop::new(seed);
        let warm = lp.next(&served_backend());
        setups.push(t.elapsed().as_secs_f64());
        (lp, warm)
    };
    let (mut lp, warm) = set_up(&mut setups);
    // Room for every episode up front: a growing vector would double
    // its memory at a point that depends on the box's speed, and move
    // `peak_rss_mb` with it. Pages never written stay unmapped.
    let mut eps = Vec::with_capacity((seconds * MAX_EPISODES_PER_S) as usize);
    eps.push(warm);
    let warm_count = eps.len();
    if traced {
        let plain = closed_loop(&mut lp, Duration::from_secs_f64(0.2 * seconds), &mut eps);
        let plain_rate = (eps.len() - warm_count) as f64 / plain.as_secs_f64();
        let before = eps.len();
        trace::enable(true);
        let took = closed_loop(&mut lp, Duration::from_secs_f64(0.2 * seconds), &mut eps);
        trace::enable(false);
        trace::take();
        let traced_rate = (eps.len() - before) as f64 / took.as_secs_f64();
        r.set("bench.trace_overhead_frac", 1.0 - traced_rate / plain_rate);
        layer_metrics(&eps[before..], &mut r);
        let max_rate = ladder(&mut lp, plain_rate, 0.25 * seconds, &mut eps, &mut r);
        r.set("bench.max_rate_qps", max_rate);
        // The core and serving layers do almost no work here; measure
        // them on the uniform_sharded memory and traffic.
        r.absorb(served::run(Kind::Uniform, seed, 0.3 * seconds, true));
    } else {
        // Back-to-back episodes in windows, a set-up after each; the
        // median window rate is the throughput.
        let windows = ((seconds / WINDOW_S) as usize).max(MIN_WINDOWS);
        let (mut rates, mut spans, mut steal) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..windows {
            let before = eps.len();
            let jiffies = env::cpu_jiffies();
            let took = closed_loop(&mut lp, Duration::from_secs_f64(WINDOW_S), &mut eps);
            steal.push(env::steal_since(jiffies));
            rates.push((eps.len() - before) as f64 / took.as_secs_f64());
            spans.push(before..eps.len());
            set_up(&mut setups);
        }
        // Before the statistics and the gate add memory of their own.
        r.set("peak_rss_mb", env::peak_rss_mb());
        r.note("windows", windows);
        // Every metric comes from the share of the windows in which the
        // hypervisor stole the least CPU time.
        let calm = stats::calm_windows(&steal);
        let most = calm.iter().map(|&i| steal[i]).fold(0.0, f64::max);
        r.note(
            "calm_windows",
            format!("{}/{windows}, steal <= {most:.3}", calm.len()),
        );
        let pick = |i: &usize| rates[*i];
        let rate = stats::median(&calm.iter().map(pick).collect::<Vec<_>>()).expect("windows ran");
        let closed: Vec<&Episode> = calm.iter().flat_map(|&i| &eps[spans[i].clone()]).collect();
        r.set("throughput_qps", rate * QUERIES_PER_EPISODE as f64);
        r.note("episodes_per_s", format!("{rate:.2}"));
        let lat: Vec<f64> = closed.iter().map(|e| e.total_ns / 1e3).collect();
        served::set_latency(&mut r, "latency_p50_us", "latency_p99_us", &lat, calm.len());
        let adds: Vec<f64> = closed
            .iter()
            .flat_map(|e| e.add_ns.iter().map(|ns| ns / 1e3))
            .collect();
        served::set_latency(&mut r, "store_p50_us", "store_p99_us", &adds, calm.len());
        r.set("setup_s", stats::median(&setups).expect("set-up samples"));
        let dims = lp.source.dims();
        let rows = task().n_way * task().k_shot;
        r.set("plan_mb", episode_plan_bytes(rows, dims) as f64 / 1e6);
        let ladder = LevelLadder::new(BITS).expect("ladder");
        r.set(
            "modeled_energy_fj_per_query",
            (ROWS_PER_BANK * dims) as f64 * served::cell_energy_fj(&ladder),
        );
    }

    // Gate: the same episodes through the direct MCAM backend answer
    // identically, and `evaluate` reports the same accuracy.
    let mut direct = EpisodeLoop::new(seed);
    let backend = Backend::mcam(BITS);
    let mut agree = 0usize;
    for (i, served) in eps.iter().enumerate() {
        let same = served.answers == direct.next(&backend).answers;
        agree += usize::from(same);
        r.check(same, || {
            format!("episode {i}: served answers differ from direct")
        });
    }
    let accuracy = eps.iter().map(|e| e.accuracy).sum::<f64>() / eps.len() as f64;
    let want = evaluate(
        &mut PrototypeFeatureModel::paper_default(seed),
        &backend,
        &EvalConfig::new(task(), eps.len(), seed),
    )
    .expect("direct evaluation");
    r.check(accuracy == want.accuracy, || {
        format!("served accuracy {accuracy} != direct {}", want.accuracy)
    });
    r.note("fewshot_accuracy", format!("{accuracy:.4}"));
    r.note("episodes", eps.len());
    // Queries in episodes whose every answer matches the direct one.
    r.set("recall_top1", agree as f64 / eps.len() as f64);
    r.attempted += eps.len() as u64 * (QUERIES_PER_EPISODE + task().n_way) as u64;
    r
}
