//! Command-line parsing and validation.
//!
//! Every value from the command line is checked here, once, and turned into
//! an [`Args`] whose fields hold only valid values. In particular a dataset
//! scale outside `(0, 1]` and a pool width of zero or above the machine's
//! parallelism are refused with a named error instead of reaching a
//! generator or executor that would panic or oversubscribe.

use std::fmt;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 5 cell: 14 selectors on four emulators at m = 25.
    Table5,
    /// The paper's Table 6 baseline: unbudgeted Incidence at paper sizes.
    IncidenceFull,
    /// Stream replay with reviews, beside a concurrent query reader.
    StreamServe,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Table5,
        Workload::IncidenceFull,
        Workload::StreamServe,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table5 => "table5",
            Workload::IncidenceFull => "incidence-full",
            Workload::StreamServe => "stream-serve",
        }
    }

    /// The dataset scale the workload runs at unless `--scale` overrides it.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::Table5 | Workload::StreamServe => 0.25,
            Workload::IncidenceFull => 1.0,
        }
    }
}

/// A validated command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generators, the selectors and the query mix.
    pub seed: u64,
    /// Measured time per run; passes repeat until it is used up.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Dataset scale in `(0, 1]`.
    pub scale: f64,
    /// Worker-pool width in `1..=nproc`.
    pub threads: usize,
}

/// Why a command line was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgError {
    /// An option the benchmark does not know.
    UnknownOption(String),
    /// An option given without its value.
    MissingValue(&'static str),
    /// A value that does not parse as the option's type.
    Unparseable {
        /// The option.
        option: &'static str,
        /// The value as given.
        value: String,
    },
    /// `--workload` names no workload.
    UnknownWorkload(String),
    /// `--workload` was not given.
    NoWorkload,
    /// `--seconds` is not a positive finite number.
    SecondsOutOfRange(f64),
    /// `--trace` is neither 0 nor 1.
    TraceOutOfRange(u64),
    /// `--scale` is outside `(0, 1]`.
    ScaleOutOfRange(f64),
    /// `--threads` is zero or above the machine's parallelism.
    ThreadsOutOfRange {
        /// The requested width.
        threads: usize,
        /// The machine's parallelism.
        nproc: usize,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownOption(o) => write!(f, "unknown option {o:?}"),
            ArgError::MissingValue(o) => write!(f, "option {o} needs a value"),
            ArgError::Unparseable { option, value } => {
                write!(f, "option {option}: cannot parse {value:?}")
            }
            ArgError::UnknownWorkload(w) => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(f, "unknown workload {w:?} (one of {})", names.join(", "))
            }
            ArgError::NoWorkload => write!(f, "--workload is required"),
            ArgError::SecondsOutOfRange(s) => {
                write!(f, "--seconds must be a positive number, got {s}")
            }
            ArgError::TraceOutOfRange(t) => write!(f, "--trace must be 0 or 1, got {t}"),
            ArgError::ScaleOutOfRange(s) => {
                write!(f, "ScaleOutOfRange: --scale must be in (0, 1], got {s}")
            }
            ArgError::ThreadsOutOfRange { threads, nproc } => write!(
                f,
                "ThreadsOutOfRange: --threads must be in 1..={nproc} (this machine's parallelism), got {threads}"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

/// The machine's parallelism, as the executor sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_value<T: std::str::FromStr>(option: &'static str, value: &str) -> Result<T, ArgError> {
    value.parse().map_err(|_| ArgError::Unparseable {
        option,
        value: value.to_string(),
    })
}

impl Args {
    /// Parses `--option value` pairs (program name excluded) against a
    /// machine of `nproc` hardware threads.
    pub fn parse(args: impl IntoIterator<Item = String>, nproc: usize) -> Result<Args, ArgError> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut scale = None;
        let mut threads = nproc.min(2);
        let mut it = args.into_iter();
        while let Some(opt) = it.next() {
            let option: &'static str = match opt.as_str() {
                "--workload" => "--workload",
                "--seed" => "--seed",
                "--seconds" => "--seconds",
                "--trace" => "--trace",
                "--scale" => "--scale",
                "--threads" => "--threads",
                _ => return Err(ArgError::UnknownOption(opt)),
            };
            let value = it.next().ok_or(ArgError::MissingValue(option))?;
            match option {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or(ArgError::UnknownWorkload(value))?,
                    )
                }
                "--seed" => seed = parse_value(option, &value)?,
                "--seconds" => {
                    seconds = parse_value(option, &value)?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err(ArgError::SecondsOutOfRange(seconds));
                    }
                }
                "--trace" => {
                    let t: u64 = parse_value(option, &value)?;
                    if t > 1 {
                        return Err(ArgError::TraceOutOfRange(t));
                    }
                    trace = t == 1;
                }
                "--scale" => {
                    let s: f64 = parse_value(option, &value)?;
                    if !(s > 0.0 && s <= 1.0) {
                        return Err(ArgError::ScaleOutOfRange(s));
                    }
                    scale = Some(s);
                }
                _ => {
                    threads = parse_value(option, &value)?;
                    if threads == 0 || threads > nproc {
                        return Err(ArgError::ThreadsOutOfRange { threads, nproc });
                    }
                }
            }
        }
        let workload = workload.ok_or(ArgError::NoWorkload)?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            scale: scale.unwrap_or(workload.default_scale()),
            threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, nproc: usize) -> Result<Args, ArgError> {
        Args::parse(line.split_whitespace().map(str::to_string), nproc)
    }

    #[test]
    fn benchmark_command_line_parses() {
        let a = parse("--workload table5 --seed 7 --seconds 20 --trace 1", 2).unwrap();
        assert_eq!(a.workload, Workload::Table5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.threads, 2);
        let a = parse("--workload incidence-full", 1).unwrap();
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.threads, 1);
    }

    #[test]
    fn scale_outside_unit_interval_is_refused() {
        for bad in ["2", "0", "-0.5", "NaN", "1.0001"] {
            let line = format!("--workload table5 --scale {bad}");
            match parse(&line, 2) {
                Err(ArgError::ScaleOutOfRange(_)) => {}
                other => panic!("scale {bad}: {other:?}"),
            }
        }
        assert_eq!(parse("--workload table5 --scale 1", 2).unwrap().scale, 1.0);
    }

    #[test]
    fn pool_width_must_fit_the_machine() {
        assert_eq!(
            parse("--workload table5 --threads 0", 2),
            Err(ArgError::ThreadsOutOfRange {
                threads: 0,
                nproc: 2
            })
        );
        assert_eq!(
            parse("--workload table5 --threads 3", 2),
            Err(ArgError::ThreadsOutOfRange {
                threads: 3,
                nproc: 2
            })
        );
        assert_eq!(
            parse("--workload table5 --threads 2", 2).unwrap().threads,
            2
        );
    }

    #[test]
    fn malformed_lines_are_refused() {
        assert_eq!(parse("--seed 1", 2), Err(ArgError::NoWorkload));
        assert!(matches!(
            parse("--workload table6", 2),
            Err(ArgError::UnknownWorkload(_))
        ));
        assert!(matches!(
            parse("--workload table5 --trace 2", 2),
            Err(ArgError::TraceOutOfRange(2))
        ));
        assert!(matches!(
            parse("--workload table5 --seconds 0", 2),
            Err(ArgError::SecondsOutOfRange(_))
        ));
        assert!(matches!(
            parse("--workload table5 --seed", 2),
            Err(ArgError::MissingValue("--seed"))
        ));
        assert!(matches!(
            parse("--workload table5 --bogus 1", 2),
            Err(ArgError::UnknownOption(_))
        ));
    }
}
