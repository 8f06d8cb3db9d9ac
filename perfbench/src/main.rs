//! The repository's one benchmark. See `README.md` beside this crate
//! for the metric glossary and `--help` for the command line.

mod compare;
mod json;
mod manifest;
mod measure;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
          [--quick] [--out DIR]
benchmark compare <a-dir> <b-dir>
benchmark manifest

  --workload  vqe4_paper | vqe7_kernel | fleet256_wide | fleet256_pooled |
              tenants32_orch | service_stream | all (one child process per
              workload and trace mode, so peak_rss_mb is per workload)
  --seed      the only source of generated inputs (default 11)
  --seconds   measured time per run (default: run_seconds of BENCHMARK.json)
  --trace     0: untraced reps, prints the end-to-end metrics (default)
              1: traced rep + replay probes, prints the per-layer metrics
  --quick     1 rep at a tenth of the epochs: a smoke pass, not a baseline
  --out       where run records (<workload>.jsonl, one per run, appended)
              and <workload>.trace.jsonl go (default results/benchmark)

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. The exit code is non-zero when an
output check fails. Measured runs refuse a debug build.

compare reads the untraced records of two --out directories, refuses
mismatched seeds / nproc / lanes / run length, and prints one row per
(end-to-end metric, workload): same | better | worse | unresolved. Host
metrics use the bounds of BENCHMARK.json (unresolved when a side's min..max
range is wider than the bound, unless every run of one side beats every run
of the other); simulated metrics must repeat exactly.

Parent-vs-change recipe (ten alternating pairs): build both commits once,
then for i in 1..=10, for every workload, run
  parent/benchmark --workload W --seed 11 --out a
  change/benchmark --workload W --seed 11 --out b
swapping which side goes first on even i; then `benchmark compare a b`.
Repeat on a held-out seed. manifest prints BENCHMARK.json.
";

/// Command-line settings of one measured run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 11,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: PathBuf::from("results/benchmark"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `--workload all`: every workload in both trace modes, each in its
/// own child process, passing the other arguments through.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut passthrough = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" || a == "--trace" {
            it.next();
        } else {
            passthrough.push(a.clone());
        }
    }
    let mut ok = true;
    for w in &manifest::WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(&passthrough)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if cfg!(debug_assertions) && !args.quick {
        return Err("refusing to measure a debug build: use --release (or --quick)".into());
    }
    if args.workload == "all" {
        return run_all(argv);
    }
    let measured = if args.trace {
        measure::per_layer(&args)
    } else {
        measure::end_to_end(&args)
    }?;
    measure::print_table(&args, &measured);
    std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(args.out.join(format!("{}.jsonl", args.workload)))
        })
        .and_then(|mut f| writeln!(f, "{}", measure::run_record(&args, &measured).encode()))
        .map_err(|e| format!("write run record under {}: {e}", args.out.display()))?;
    println!("{}", measure::result_line(&measured));
    Ok(measured.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            print!("{HELP}");
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: benchmark compare <a-dir> <b-dir>".into()),
        },
        _ => run(&argv),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
