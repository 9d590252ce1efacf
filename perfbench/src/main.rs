//! Same-host benchmark of the reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig6_cold|serve_forest> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Sets up (reference runs the checks
//! compare against), then repeats whole operations for `--seconds`,
//! checks every output, and prints one JSON line last on stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run is followed
//! by the traced layer pass (`layers`) and the metrics are per layer.
//! All timed work is single-threaded. Scratch files live under
//! `.bench_work/` and are removed before exit.

mod batch;
mod checks;
mod layers;
mod serve;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output differed from the reference.
    pub failed: u64,
    /// Failed checks (any makes the run incorrect).
    pub errors: Vec<String>,
    /// End-to-end metrics: (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Abort the run with a failed check.
    pub fn fail(mut self, error: String) -> Outcome {
        self.errors.push(error);
        self
    }

    /// Record the end-to-end metrics: medians of the set-up times, the
    /// operation wall times and the peak resident sets.
    pub fn finish(mut self, setup: &[f64], op: &[f64], rss: &[f64]) -> Outcome {
        for (name, values, unit) in
            [("setup_s", setup, "s"), ("op_s", op, "s"), ("peak_rss_mb", rss, "MiB")]
        {
            self.metrics.push((name.to_string(), stats::median(values).unwrap_or(f64::NAN), unit));
        }
        self
    }
}

/// The workloads, as `BENCHMARK.json` names them.
const WORKLOADS: [&str; 2] = ["fig6_cold", "serve_forest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value.clone(),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// One JSON object; numbers in Rust's shortest round-trip form.
fn render(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.errors.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__sweep") {
        return match batch::child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sweep child: {e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let work: PathBuf =
        root.join(".bench_work").join(format!("{}-{}", a.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut o = match a.workload.as_str() {
        "fig6_cold" => batch::fig6_cold(a.seed, a.seconds, &work),
        _ => serve::run(a.seed, a.seconds, &work),
    };
    if a.trace && o.errors.is_empty() {
        o.metrics = match layers::run(a.seed, &work) {
            Ok(m) => m,
            Err(e) => {
                o.errors.push(format!("traced pass: {e}"));
                Vec::new()
            }
        };
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    for (name, v, _) in &o.metrics {
        if !v.is_finite() {
            o.errors.push(format!("metric {name} is not finite"));
        }
    }
    o.metrics.retain(|(_, v, _)| v.is_finite());
    for e in &o.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", render(&o));
    ExitCode::SUCCESS
}
