//! The repository benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table5|incidence-full|stream-serve --seed N --seconds S --trace 0|1 \
//!     [--scale F] [--threads N]
//! ```
//!
//! Each workload runs on the library's default configuration: every `CP_*`
//! variable is cleared except `CP_THREADS`, which is set to the pool width.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end metrics of an
//! untraced run (`--trace 0`), or the per-layer metrics of a traced run
//! (`--trace 1`), whose spans are also written to
//! `.bench_trace/<workload>-seed<N>.jsonl`. See `NOTES.md` for why each
//! workload and metric was chosen.

mod args;
mod check;
mod incidence;
mod layers;
mod measure;
mod probe;
mod schedule;
mod stream;
mod table5;
mod trace;

use args::{Args, Workload};
use layers::{emit, Values, END_TO_END, PER_LAYER};
use measure::{peak_rss_mb, ratio, result_line, Tally};
use std::time::Instant;
use trace::Tracer;

/// What a workload hands back: its measurements, its output-check tally
/// and its spans.
pub struct Outcome {
    values: Values,
    tally: Tally,
    tracer: Tracer,
}

/// Clears every `CP_*` knob except the pool width, which it sets. Runs
/// before the library reads its environment.
fn default_configuration(threads: usize) {
    for (key, _) in std::env::vars_os() {
        if let Some(k) = key.to_str() {
            if k.starts_with("CP_") && k != "CP_THREADS" {
                std::env::remove_var(k);
            }
        }
    }
    std::env::set_var("CP_THREADS", threads.to_string());
}

fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, tracer.to_jsonl())?;
    Ok(path.display().to_string())
}

fn main() {
    let origin = Instant::now();
    let args = match Args::parse(std::env::args().skip(1), args::nproc()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    default_configuration(args.threads);
    let outcome = match args.workload {
        Workload::Table5 => table5::run(&args, origin),
        Workload::IncidenceFull => incidence::run(&args, origin),
        Workload::StreamServe => stream::run(&args, origin),
    };
    let mut values = outcome.values;
    values.insert("peak_rss_mb", peak_rss_mb());
    values.insert(
        "failed_frac",
        ratio(outcome.tally.failed as f64, outcome.tally.attempted as f64),
    );
    let metrics = if args.trace {
        match write_trace(&args, &outcome.tracer) {
            Ok(path) => eprintln!("spans: {} written to {path}", outcome.tracer.spans().len()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
        emit(&PER_LAYER, &values, false)
    } else {
        emit(&END_TO_END, &values, true)
    };
    for (name, value, unit) in metrics.entries() {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{}", result_line(outcome.tally, &metrics));
}
