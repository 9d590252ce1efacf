//! The serving workloads: in-process `serving::engine::serve` replays
//! of a synthetic USTC-TFC trace, every flow routed to one model.

use crate::checks::{check_replay, count_non_ip};
use crate::sys::self_usage;
use crate::Outcome;
use dataset::record::Prepared;
use debunk_core::obs::{LogFormat, ObsSink};
use serving::bundle::ModelBundle;
use serving::engine::{serve, ServeOptions, ServeStats};
use serving::policy::Policy;
use serving::reload::ReloadSource;
use serving::source::{ReplayPacket, SynthSpec};
use std::borrow::Borrow;
use std::path::Path;
use std::time::Instant;

/// Flows classified per model invocation in the timed replays.
pub const BATCH: usize = 16;
/// Idle timeout, seconds (the engine default).
pub const IDLE_TIMEOUT: f64 = 15.0;
/// Packets replayed per operation: the head of the generated trace.
/// Generated trace lengths vary by ±25% from seed to seed, and a
/// replay's time with them; a fixed-length head keeps the work per
/// operation the same for every seed.
pub const REPLAY_PACKETS: usize = 120_000;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Synthetic source the bundle is trained on.
pub fn train_spec(seed: u64) -> String {
    format!("ustc:{seed}:4")
}

/// The replayed head: the first [`REPLAY_PACKETS`] of what `make`
/// builds from `ustc:<seed + 1>:<flows>` — same recipe as the training
/// trace, another generator seed, so the models serve traffic they were
/// not trained on. `flows` starts at 200 (at least 160k packets on every
/// seed tried) and doubles while the trace is too short.
pub fn replay_head<T>(seed: u64, make: impl Fn(&SynthSpec) -> Vec<T>) -> Result<Vec<T>, String> {
    for flows in [200, 400, 800] {
        let spec = SynthSpec::parse(&format!("ustc:{}:{flows}", seed.wrapping_add(1)))?;
        let mut items = make(&spec);
        if items.len() >= REPLAY_PACKETS {
            items.truncate(REPLAY_PACKETS);
            return Ok(items);
        }
    }
    Err(format!("no trace of {REPLAY_PACKETS} packets for seed {seed}"))
}

/// The one-rule policy routing every flow to `target`.
pub fn policy_text(target: &str) -> String {
    format!("default -> {target}")
}

/// One replay's output.
pub struct Served {
    /// Verdict JSONL bytes.
    pub stream: Vec<u8>,
    /// Engine counters.
    pub stats: ServeStats,
    /// Wall seconds of the `serve` call.
    pub wall_s: f64,
}

/// Replay `packets` through `serve` on one worker.
pub fn serve_once<I>(
    bundle: &ModelBundle,
    policy: &Policy,
    packets: I,
    batch: usize,
    capacity: usize,
) -> Result<Served, String>
where
    I: IntoIterator,
    I::Item: Borrow<ReplayPacket>,
{
    let sink = ObsSink::stderr(LogFormat::Text);
    let opts = ServeOptions { batch, idle_timeout: IDLE_TIMEOUT, workers: 1 };
    let mut stream = Vec::with_capacity(capacity);
    let t = Instant::now();
    let stats = serve(bundle, policy, packets, &opts, ReloadSource::None, &mut stream, &sink)
        .map_err(|e| format!("serve: {e}"))?;
    Ok(Served { stream, stats, wall_s: t.elapsed().as_secs_f64() })
}

/// Everything a serving run needs before its first timed replay.
pub struct Setup {
    /// The replayed packets.
    pub replay: Vec<ReplayPacket>,
    /// The bundle, after a save/load round trip.
    pub bundle: ModelBundle,
    /// The routing policy.
    pub policy: Policy,
    /// The checked batch-16 reference replay.
    pub reference: Served,
}

/// Generate the traces, train the bundle, round-trip it through disk,
/// and make the reference replay: batch 1 and batch 16 must agree byte
/// for byte and pass the conservation checks.
pub fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let replay = replay_head(seed, SynthSpec::replay)?;
    let train = SynthSpec::parse(&train_spec(seed))?.trace();
    let trained = ModelBundle::train(&Prepared::from_trace(&train), seed);
    trained.save(dir).map_err(|e| format!("bundle save: {e}"))?;
    let bundle = ModelBundle::load(dir)?;
    let policy = Policy::parse(&policy_text("forest")).map_err(|e| format!("policy: {e}"))?;
    let ts: Vec<f64> = replay.iter().map(|p| p.ts).collect();
    let non_ip = count_non_ip(replay.iter().map(|p| &p.frame));
    let one = serve_once(&bundle, &policy, &replay, 1, 0)?;
    let reference = serve_once(&bundle, &policy, &replay, BATCH, one.stream.len())?;
    if one.stream != reference.stream || one.stats != reference.stats {
        return Err("verdicts at batch 1 and batch 16 differ".into());
    }
    check_replay(&reference.stream, &reference.stats, &ts, non_ip)?;
    Ok(Setup { replay, bundle, policy, reference })
}

/// `serve_forest`: repeated full replays with every flow routed to the
/// random forest. Each must reproduce the reference verdict bytes and
/// counters.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut o = Outcome::default();
    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let dir = work.join(format!("bundle{i}"));
        let s = match setup(seed, &dir) {
            Ok(s) => s,
            Err(e) => return o.fail(format!("serving setup: {e}")),
        };
        setup_s.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
        match &kept {
            None => kept = Some(s),
            Some(k) if k.reference.stream != s.reference.stream => {
                return o.fail("two set-ups of the same seed served different verdicts".into())
            }
            Some(_) => {}
        }
    }
    let s = kept.expect("at least one setup");
    let mut wall = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    loop {
        let served =
            match serve_once(&s.bundle, &s.policy, &s.replay, BATCH, s.reference.stream.len()) {
                Ok(v) => v,
                Err(e) => return o.fail(e),
            };
        o.attempted += 1;
        if served.stream != s.reference.stream || served.stats != s.reference.stats {
            eprintln!("replay {}: verdicts differ from the reference replay", o.attempted);
            o.failed += 1;
        }
        wall.push(served.wall_s);
        if Instant::now() >= deadline {
            break;
        }
    }
    let rss = self_usage().peak_rss_mb;
    o.finish(&setup_s, &wall, &[rss])
}
