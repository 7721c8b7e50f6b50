//! `converging-pairs` — command-line front end.
//!
//! Reads a temporal edge list (`u v [time]` per line, `#`/`%` comments),
//! cuts two snapshots, and prints the top converging pairs found under an
//! SSSP budget — or exactly, with `--exact`. Pairs are printed with the
//! file's own node ids, however sparse.
//!
//! ```text
//! converging-pairs graph.txt --t1 0.8 --t2 1.0 --m 100 --selector mmsd
//! converging-pairs graph.txt --exact --delta-min 3
//! ```

use converging_pairs::gen::io::read_temporal_file;
use converging_pairs::prelude::*;
use std::process::ExitCode;

struct Args {
    path: String,
    t1: f64,
    t2: f64,
    m: u64,
    k: usize,
    delta_min: Option<u32>,
    selector: String,
    landmarks: usize,
    seed: u64,
    exact: bool,
    evaluate: bool,
}

const USAGE: &str = "\
usage: converging-pairs <edge-list> [options]

input: one edge per line, `u v [time]`; without the time column the line
order is the insertion order. Lines starting with # or % are skipped.
Node ids may be any u32 labels; the output uses the same labels.

options:
  --t1 F           first snapshot: fraction of the edge stream  [0.8]
  --t2 F           second snapshot fraction                     [1.0]
  --m N            SSSP budget: N candidate endpoints (2N SSSPs) [100]
  --k N            report the top-N pairs                        [20]
  --delta-min D    report every pair with distance decrease >= D
                   (overrides --k)
  --selector NAME  degree|degdiff|degrel|maxmin|maxavg|sumdiff|maxdiff|
                   mmsd|mmmd|masd|mamd|incdeg|incbet|random      [mmsd]
  --landmarks L    landmarks for the landmark/hybrid selectors   [10]
  --seed N         RNG seed                                      [42]
  --exact          compute the exact answer (all-pairs BFS) instead
  --evaluate       additionally compute the exact answer and report the
                   budgeted run's coverage against it
  -h, --help       this text";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: String::new(),
        t1: 0.8,
        t2: 1.0,
        m: 100,
        k: 20,
        delta_min: None,
        selector: "mmsd".to_string(),
        landmarks: 10,
        seed: 42,
        exact: false,
        evaluate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--t1" => args.t1 = take("--t1")?.parse().map_err(|e| format!("--t1: {e}"))?,
            "--t2" => args.t2 = take("--t2")?.parse().map_err(|e| format!("--t2: {e}"))?,
            "--m" => args.m = take("--m")?.parse().map_err(|e| format!("--m: {e}"))?,
            "--k" => args.k = take("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--delta-min" => {
                args.delta_min = Some(
                    take("--delta-min")?
                        .parse()
                        .map_err(|e| format!("--delta-min: {e}"))?,
                )
            }
            "--selector" => args.selector = take("--selector")?.to_lowercase(),
            "--landmarks" => {
                args.landmarks = take("--landmarks")?
                    .parse()
                    .map_err(|e| format!("--landmarks: {e}"))?
            }
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--exact" => args.exact = true,
            "--evaluate" => args.evaluate = true,
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            path if args.path.is_empty() => args.path = path.to_string(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if args.path.is_empty() {
        return Err("missing <edge-list> argument".to_string());
    }
    if !(0.0..=1.0).contains(&args.t1) || !(0.0..=1.0).contains(&args.t2) || args.t1 > args.t2 {
        return Err("need 0 <= t1 <= t2 <= 1".to_string());
    }
    Ok(args)
}

fn selector_kind(name: &str, landmarks: usize) -> Option<SelectorKind> {
    Some(match name {
        "degree" => SelectorKind::Degree,
        "degdiff" => SelectorKind::DegDiff,
        "degrel" => SelectorKind::DegRel,
        "maxmin" => SelectorKind::MaxMin,
        "maxavg" => SelectorKind::MaxAvg,
        "sumdiff" => SelectorKind::SumDiff { landmarks },
        "maxdiff" => SelectorKind::MaxDiff { landmarks },
        "mmsd" => SelectorKind::Mmsd { landmarks },
        "mmmd" => SelectorKind::Mmmd { landmarks },
        "masd" => SelectorKind::Masd { landmarks },
        "mamd" => SelectorKind::Mamd { landmarks },
        "incdeg" => SelectorKind::IncDeg,
        "incbet" => SelectorKind::IncBet,
        "random" => SelectorKind::Random,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let (temporal, labels) = match read_temporal_file(&args.path) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.path);
            return ExitCode::from(1);
        }
    };
    let (g1, g2) = temporal.snapshot_pair(args.t1, args.t2);
    eprintln!(
        "snapshots: G_t1 {} nodes / {} edges  ->  G_t2 {} edges",
        g1.num_active_nodes(),
        g1.num_edges(),
        g2.num_edges()
    );

    let spec = match args.delta_min {
        Some(d) => TopKSpec::Threshold { delta_min: d },
        None => TopKSpec::TopK(args.k),
    };
    let threads = converging_pairs::graph::apsp::default_threads();

    let pairs = if args.exact {
        let exact = exact_top_k(&g1, &g2, &spec, threads);
        eprintln!(
            "exact: delta_max = {}, {} pairs ({}n SSSP equivalents spent)",
            exact.delta_max,
            exact.k(),
            2
        );
        exact.pairs
    } else {
        let Some(kind) = selector_kind(&args.selector, args.landmarks) else {
            eprintln!("error: unknown selector {:?}\n\n{USAGE}", args.selector);
            return ExitCode::from(2);
        };
        let mut selector = kind.build(args.seed);
        let result = budgeted_top_k(&g1, &g2, selector.as_mut(), args.m, &spec);
        eprintln!(
            "budgeted [{}]: {} SSSPs spent ({} generation + {} top-k), {} candidates",
            selector.name(),
            result.budget.total(),
            result.budget.generation,
            result.budget.topk,
            result.candidates.len()
        );
        if args.evaluate {
            let exact = exact_top_k(&g1, &g2, &spec, threads);
            eprintln!(
                "coverage vs exact: {:.1}% of {} true pairs",
                100.0 * coverage(&result.pairs, &exact),
                exact.k()
            );
        }
        result.pairs
    };

    println!("u\tv\tdelta");
    for p in &pairs {
        let (u, v) = (labels[p.pair.0.index()], labels[p.pair.1.index()]);
        println!("{u}\t{v}\t{}", p.delta);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_names_map_to_kinds() {
        for name in [
            "degree", "degdiff", "degrel", "maxmin", "maxavg", "sumdiff", "maxdiff", "mmsd",
            "mmmd", "masd", "mamd", "incdeg", "incbet", "random",
        ] {
            let kind = selector_kind(name, 7).unwrap_or_else(|| panic!("{name} unmapped"));
            // Landmark-parameterized selectors carry the requested count.
            if let SelectorKind::Mmsd { landmarks } = kind {
                assert_eq!(landmarks, 7);
            }
        }
        assert!(selector_kind("nonsense", 10).is_none());
    }
}
