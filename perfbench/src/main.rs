//! femcam benchmark: end-to-end metrics of three workloads, and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! femcam-perfbench --workload <uniform_sharded|clustered_routed_rw|fewshot_20w1s>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--rev <id>] [--out <dir>]
//! ```
//!
//! Prints a table on stderr, a stamped record line on stdout, and as
//! the last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when a served answer disagrees with
//! the direct search. With `--out`, appends the record to
//! `<dir>/history.jsonl` and, for a traced run, writes the span
//! summary to `<dir>/spans-<workload>-<seed>.json`.

mod env;
mod fewshot;
mod layers;
mod load;
mod report;
mod served;
mod stats;
mod trace;

use std::io::Write;
use std::path::PathBuf;

use report::{Report, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rev: "unknown".into(),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--rev" => args.rev = value,
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    let (seed, s, t) = (args.seed, args.seconds, args.trace);
    Ok(match args.workload.as_str() {
        "uniform_sharded" => served::run(served::Kind::Uniform, seed, s, t),
        "clustered_routed_rw" => served::run(served::Kind::Clustered, seed, s, t),
        "fewshot_20w1s" => fewshot::run(seed, s, t),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Worker threads of the library's parallel executor. One: each
/// dispatcher then runs its batches inline, so the threads of a served
/// workload (one or two dispatchers, the submitter and the reaper) do
/// not also contend with per-batch worker threads for the box's cores,
/// and every layer's time compares with a single-thread roofline.
const EXECUTOR_THREADS: &str = "1";

fn main() {
    // Before any thread exists: the executor reads it on every batch.
    std::env::set_var("FEMCAM_THREADS", EXECUTOR_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("femcam-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let jiffies_before = env::cpu_jiffies();
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("femcam-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal = env::steal_since(jiffies_before);
    report.note("cpu_steal_frac", format!("{steal:.4}"));
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.note("failed_frac", failed_frac);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = Vec::new();
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        match report.metrics.get(name) {
            Some(&v) if v.is_finite() => metrics.push((name, v, unit)),
            _ => missing.push(name),
        }
    }
    if !missing.is_empty() {
        eprintln!("femcam-perfbench: metrics not measured: {missing:?}");
        std::process::exit(1);
    }

    let (nproc, cpu) = (env::nproc(), env::cpu_model());
    eprintln!(
        "{} seed={} seconds={} trace={} rev={} nproc={} cpu={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.rev, nproc, cpu
    );
    for &(name, v, unit) in &metrics {
        eprintln!("  {name:<34} {v:>16.4} {unit}");
    }
    for (k, v) in &report.notes {
        eprintln!("  # {k}: {v}");
    }
    for p in report.problems.iter().take(20) {
        eprintln!("  ! {p}");
    }
    let correct = report.problems.is_empty();
    let metrics_json = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let notes_json = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rev\": {}, \"nproc\": {}, \"cpu\": {}, \"correct\": {}, \"problems\": {}, \"metrics\": {{{}}}, \"notes\": {{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(&args.rev),
        nproc,
        json_str(&cpu),
        correct,
        report.problems.len(),
        metrics_json,
        notes_json
    );
    if let Some(dir) = &args.out {
        if let Err(e) = write_out(dir, &record, &args) {
            eprintln!(
                "femcam-perfbench: could not write to {}: {e}",
                dir.display()
            );
        }
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        report.attempted.max(1),
        report.failed
    );
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(lock, "{record}");
    let _ = writeln!(lock, "{result}");
    let _ = lock.flush();
    if !correct {
        std::process::exit(1);
    }
}

/// Appends the record to the history and writes the span summary.
fn write_out(dir: &PathBuf, record: &str, args: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    writeln!(history, "{record}")?;
    if args.trace {
        let rows = trace::summary()
            .into_iter()
            .map(|(name, n, total, own, p50, p99)| {
                format!(
                    "  {}: {{\"count\": {n}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                    json_str(name),
                    json_num(total),
                    json_num(own),
                    json_num(p50),
                    json_num(p99)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        std::fs::write(
            dir.join(format!("spans-{}-{}.json", args.workload, args.seed)),
            format!("{{\n{rows}\n}}\n"),
        )?;
    }
    Ok(())
}
