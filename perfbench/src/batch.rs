//! The batch workload: Fig. 6 sweeps run exactly as
//! `repro <experiment> --fast --scale 1 --jobs 1 --kernel-threads 1
//! [--cache-dir D]` runs them, each in a fresh process, so every sweep
//! pays its own pre-training and page faults.

use crate::checks::{check_records, group_digests, journal_cells, mismatched_groups};
use crate::stats::fnv64;
use crate::sys::self_usage;
use crate::Outcome;
use dataset::record::PacketRecord;
use dataset::Task;
use debunk_core::engine::{default_registry, EncoderSpec, Preset, RunContext, RunOptions};
use encoders::ModelKind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Marker of the result line a sweep child prints on stdout.
const MARKER: &str = "PERFBENCH_SWEEP";

/// Fig. 6 cells per sweep: RF plus six encoders, frozen and unfrozen.
const FIG6_CELLS: usize = 13;
/// Records written per Fig. 6 sweep (the RF cell is silent).
const FIG6_RECORDS: usize = 12;
/// Cells (and records) per `table7` run.
const TABLE7_CELLS: usize = 8;

/// Dataset scale of every sweep. The fast budget caps training and
/// test sets at 1500 packets; at the preset's own scale (0.4) some
/// seeds stay below the caps and a sweep's work, and its time, varied
/// by up to 75% from seed to seed. At 1.0 it varies by about ±10%.
pub const SCALE: f64 = 1.0;

/// Records a probe encoding is taken over.
const PROBE_RECORDS: usize = 64;

/// What one sweep child reports about itself.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// Wall seconds of the engine run alone.
    pub wall_s: f64,
    /// User CPU seconds of the child up to the end of the run.
    pub user_s: f64,
    /// Kernel CPU seconds of the child up to the end of the run.
    pub sys_s: f64,
    /// Minor page faults of the child up to the end of the run.
    pub minor_faults: u64,
    /// Peak resident set of the child, MiB.
    pub peak_rss_mb: f64,
    /// Cells in the run.
    pub cells_total: usize,
    /// Cells done.
    pub cells_done: usize,
    /// Digest of each pre-trained encoder's output on a fixed probe
    /// (Fig. 6 runs only).
    pub probes: Vec<(String, u64)>,
}

/// Digest of an encoder: its embedding of the first probe records.
pub fn probe_digest(enc: &encoders::EncoderModel, records: &[PacketRecord]) -> u64 {
    let recs: Vec<&PacketRecord> = records.iter().take(PROBE_RECORDS).collect();
    let t = enc.encode_packets(&recs);
    fnv64(t.data.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Entry point of a sweep child: `__sweep <experiment> <seed> <out> <cache|->`.
/// Runs the experiment at the fast budget on one thread and prints one
/// marker line with its measurements.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [experiment, seed, out, cache] = args else {
        return Err("usage: __sweep <experiment> <seed> <out> <cache|->".into());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let mut ctx = RunContext::from_preset(Preset::Fast, seed, Some(SCALE));
    if cache != "-" {
        ctx = ctx.with_cache_dir(PathBuf::from(cache));
    }
    let opts = RunOptions {
        jobs: 1,
        kernel_threads: Some(1),
        out_dir: Some(PathBuf::from(out)),
        ..RunOptions::default()
    };
    let registry = default_registry();
    let t = Instant::now();
    let summary = registry.run(experiment, &ctx, &opts).map_err(|e| format!("{e:?}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let usage = self_usage();
    let mut line = format!(
        "{MARKER} wall={wall_s} user={} sys={} minflt={} rss_mb={} total={} done={}",
        usage.user_s,
        usage.sys_s,
        usage.minor_faults,
        usage.peak_rss_mb,
        summary.cells_total,
        summary.cells_done
    );
    if experiment == "fig6" {
        // Served from the run's in-memory caches: no rebuild.
        let prep = ctx.prep(Task::VpnApp);
        for kind in ModelKind::ALL {
            let enc = ctx.encoder(EncoderSpec::pretrained(kind));
            line +=
                &format!(" probe:{}={:016x}", kind.name(), probe_digest(&enc, &prep.data.records));
        }
    }
    println!("{line}");
    Ok(())
}

fn parse_child(stdout: &str) -> Result<Sweep, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with(MARKER))
        .ok_or("sweep child printed no result line")?;
    let mut s = Sweep::default();
    for item in line.split_whitespace().skip(1) {
        let (k, v) = item.split_once('=').ok_or_else(|| format!("bad item '{item}'"))?;
        let bad = || format!("bad value in '{item}'");
        match k {
            "wall" => s.wall_s = v.parse().map_err(|_| bad())?,
            "user" => s.user_s = v.parse().map_err(|_| bad())?,
            "sys" => s.sys_s = v.parse().map_err(|_| bad())?,
            "minflt" => s.minor_faults = v.parse().map_err(|_| bad())?,
            "rss_mb" => s.peak_rss_mb = v.parse().map_err(|_| bad())?,
            "total" => s.cells_total = v.parse().map_err(|_| bad())?,
            "done" => s.cells_done = v.parse().map_err(|_| bad())?,
            _ => match k.strip_prefix("probe:") {
                Some(model) => s.probes.push((
                    model.to_string(),
                    u64::from_str_radix(v, 16).map_err(|_| format!("bad probe '{item}'"))?,
                )),
                None => return Err(format!("unknown item '{item}'")),
            },
        }
    }
    Ok(s)
}

/// Run one sweep child and wait for it. `out` must not exist yet.
pub fn run_sweep(
    experiment: &str,
    seed: u64,
    out: &Path,
    cache: Option<&Path>,
) -> Result<Sweep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let cache_arg = cache.map_or("-".to_string(), |c| c.display().to_string());
    let output = Command::new(exe)
        .args(["__sweep", experiment, &seed.to_string(), &out.display().to_string(), &cache_arg])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start sweep child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(20).collect();
        return Err(format!(
            "{experiment} child failed ({}): {}",
            output.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    parse_child(&stdout)
}

/// Checks every sweep must pass: all cells done, records in range.
fn check_sweep(s: &Sweep, out: &Path, experiment: &str) -> Result<(), String> {
    let (cells, records) = match experiment {
        "fig6" => (FIG6_CELLS, FIG6_RECORDS),
        _ => (TABLE7_CELLS, TABLE7_CELLS),
    };
    if s.cells_total != cells || s.cells_done != cells {
        return Err(format!(
            "{experiment}: {} of {} cells done, expected {cells}",
            s.cells_done, s.cells_total
        ));
    }
    let path = out.join(format!("{experiment}.json"));
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    check_records(&json, records).map_err(|e| format!("{experiment} records: {e}"))
}

/// Per-model digests of a Fig. 6 sweep: journal outputs + encoder probes.
fn sweep_groups(s: &Sweep, out: &Path) -> Result<BTreeMap<String, u64>, String> {
    let journal = std::fs::read_to_string(out.join("journal.jsonl"))
        .map_err(|e| format!("cannot read journal: {e}"))?;
    let cells = journal_cells(&journal)?;
    if cells.len() != FIG6_CELLS {
        return Err(format!("journal has {} done cells, expected {FIG6_CELLS}", cells.len()));
    }
    Ok(group_digests(&cells, &s.probes))
}

fn fresh(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    dir.to_path_buf()
}

/// `fig6_cold`: cold Fig. 6 sweeps without a cache, over a pair of
/// seeds derived from the run's seed (the sweep's work varies by about
/// ±10% with the generated data; a pair narrows that spread). Set-up is
/// one reference sweep per seed; a round is one timed sweep per seed.
/// Each timed sweep is compared per model (cell outputs plus the
/// pre-trained encoder's probe digest) with its seed's reference, and
/// a model whose digest differs counts as one failed operation.
pub fn fig6_cold(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut o = Outcome::default();
    let seeds = [seed, seed ^ (1 << 32)];
    let mut setup = Vec::new();
    let mut reference = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let t = Instant::now();
        let out = fresh(&work.join(format!("ref{i}")));
        let r = run_sweep("fig6", s, &out, None)
            .and_then(|sweep| check_sweep(&sweep, &out, "fig6").map(|_| sweep))
            .and_then(|sweep| sweep_groups(&sweep, &out));
        setup.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&out);
        match r {
            Ok(g) => reference.push(g),
            Err(e) => return o.fail(format!("reference sweep: {e}")),
        }
    }
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut round = 0;
    loop {
        for (&s, reference) in seeds.iter().zip(&reference) {
            let out = fresh(&work.join(format!("sweep{round}-{s}")));
            let r = run_sweep("fig6", s, &out, None).and_then(|sweep| {
                check_sweep(&sweep, &out, "fig6")?;
                Ok((sweep_groups(&sweep, &out)?, sweep))
            });
            let _ = std::fs::remove_dir_all(&out);
            let (groups, sweep) = match r {
                Ok(v) => v,
                Err(e) => return o.fail(e),
            };
            let bad = mismatched_groups(reference, &groups);
            if !bad.is_empty() {
                eprintln!("seed {s}: sweep differs from its reference on {}", bad.join(", "));
            }
            o.attempted += reference.len() as u64;
            o.failed += bad.len() as u64;
            wall.push(sweep.wall_s);
            rss.push(sweep.peak_rss_mb);
        }
        round += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    o.finish(&setup, &wall, &rss)
}

/// The cache's transparency promise: `table7` run against `cache`
/// writes the same records as `table7` run without one. Returns the
/// wall times of the uncached and the cached run.
pub fn table7_transparency(seed: u64, cache: &Path, work: &Path) -> Result<(f64, f64), String> {
    let mut runs = Vec::new();
    for (name, cache) in [("cold", None), ("warm", Some(cache))] {
        let out = fresh(&work.join(format!("table7-{name}")));
        let r = run_sweep("table7", seed, &out, cache).and_then(|s| {
            check_sweep(&s, &out, "table7")?;
            let records =
                std::fs::read(out.join("table7.json")).map_err(|e| format!("table7.json: {e}"))?;
            Ok((s.wall_s, records))
        });
        let _ = std::fs::remove_dir_all(&out);
        runs.push(r?);
    }
    if runs[0].1 != runs[1].1 {
        return Err("table7 records with a warm cache differ from the uncached run".into());
    }
    Ok((runs[0].0, runs[1].0))
}
