//! The traced pass: times calls into each layer's public functions from
//! the benchmark's own code, and recomputes what the end-to-end paths
//! produced through its own chain of calls.
//!
//! Batch: the Fig. 6 cells are rebuilt stage by stage (generate →
//! prepare → pre-train → tokenize → cells) and every deterministic
//! cell's accuracy must equal the untraced sweep's; checkpoints and
//! artifacts are written and read back through the engine's caches.
//!
//! Serving: packets go through `FlowTable` one at a time, retired flows
//! through the policy and then features + forest or encoder + head;
//! every recomputed label must equal the label `serve` returned.

use crate::batch::{probe_digest, run_sweep, table7_transparency, SCALE};
use crate::checks::{check_labels, check_replay, journal_cells, num_field, Verdict};
use crate::serve::{policy_text, replay_head, serve_once, train_spec, BATCH, IDLE_TIMEOUT};
use crate::stats::{median, percentile};
use crate::sys::{dir_bytes, mib};
use dataset::record::{PacketRecord, Prepared};
use dataset::Task;
use debunk_core::artifact::ArtifactCache;
use debunk_core::engine::{EncoderSpec, EncoderStore, Preset, RunContext};
use debunk_core::experiment::build_encoder;
use debunk_core::obs::{LogFormat, ObsSink};
use debunk_core::pipeline::{
    DatasetArtifact, FeatureMatrix, PreparedTask, TokenMatrix, TokenVariant,
};
use debunk_core::shallow_baselines::{run_shallow, ShallowModel};
use debunk_core::{run_cell, Artifact, SplitPolicy};
use encoders::{EncodeScratch, EncoderModel, ModelKind};
use net_packet::frame::ParsedFrame;
use nn::{MlpScratch, Tensor};
use serving::bundle::{ModelBundle, SERVING_FEATURES};
use serving::flow::{FlowTable, TrackedFlow};
use serving::policy::Policy;
use serving::source::{ReplayPacket, SynthSpec};
use shallow::{extract_features, FeatureConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use traffic_synth::DatasetSpec;

/// Per-layer metrics in output order: (name, value, unit).
pub type Metrics = Vec<(String, f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_string(), value, unit));
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run the whole traced pass.
pub fn run(seed: u64, work: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    batch_layers(seed, work, &mut m)?;
    serving_layers(seed, work, &mut m)?;
    Ok(m)
}

fn batch_layers(seed: u64, work: &Path, m: &mut Metrics) -> Result<(), String> {
    nn::set_kernel_threads(1);
    // The untraced reference: one cold sweep in its own process.
    let out = work.join("layers-sweep");
    let _ = std::fs::remove_dir_all(&out);
    let sweep = run_sweep("fig6", seed, &out, None)?;
    let journal = std::fs::read_to_string(out.join("journal.jsonl"))
        .map_err(|e| format!("cannot read journal: {e}"))?;
    let _ = std::fs::remove_dir_all(&out);
    let mut untraced: HashMap<(String, String), (f64, f64)> = HashMap::new();
    for c in journal_cells(&journal)? {
        let stats = (num_field(&c.output, "accuracy")?, num_field(&c.output, "macro_f1")?);
        untraced.insert((c.model, c.setting), stats);
    }
    let same = |model: &str, setting: &str, acc: f64, f1: f64| -> Result<(), String> {
        // ET-BERT's pre-training is not reproducible across processes
        // (see the README); every other cell must match bit for bit.
        if model == ModelKind::EtBert.name() {
            return Ok(());
        }
        match untraced.get(&(model.to_string(), setting.to_string())) {
            Some(&(a, f)) if a.to_bits() == acc.to_bits() && f.to_bits() == f1.to_bits() => Ok(()),
            Some(&(a, f)) => Err(format!(
                "{model} {setting}: traced cell gives ({acc}, {f1}), the sweep ({a}, {f})"
            )),
            None => Err(format!("{model} {setting}: not in the sweep's journal")),
        }
    };

    let ctx = RunContext::from_preset(Preset::Fast, seed, Some(SCALE));
    let dispatches = || {
        let k = nn::kernel::kernel_stats();
        (k.parallel_dispatches + k.serial_dispatches) as f64
    };
    let k0 = dispatches();

    let t = Instant::now();
    let trace = DatasetSpec::new(Task::VpnApp.dataset(), seed).scaled(ctx.scale).generate();
    let generate_s = secs(t.elapsed());
    drop(trace);

    let t = Instant::now();
    let prep = PreparedTask::build(Task::VpnApp, seed, ctx.scale);
    let prepare_s = secs(t.elapsed());

    let mut encs: Vec<(ModelKind, EncoderModel)> = Vec::new();
    let t = Instant::now();
    for kind in ModelKind::ALL {
        encs.push((kind, build_encoder(kind, true, ctx.budget, ctx.pretrain_seed())));
    }
    let pretrain_s = secs(t.elapsed());

    let t = Instant::now();
    for (_, enc) in &encs {
        prep.tokens(enc, TokenVariant::Repeated);
    }
    let tokenize_s = secs(t.elapsed());

    let (mut frozen_s, mut unfrozen_s) = (0.0, 0.0);
    for (kind, enc) in &encs {
        for frozen in [true, false] {
            let setting = if frozen { "frozen" } else { "unfrozen" };
            let cfg = ctx.cell_config("fig6", "VPN-app", kind.name(), setting);
            let t = Instant::now();
            let r = run_cell(&prep, enc, SplitPolicy::PerFlow, frozen, &cfg);
            let s = secs(t.elapsed());
            if frozen {
                frozen_s += s;
            } else {
                unfrozen_s += s;
            }
            same(kind.name(), setting, r.accuracy, r.macro_f1)?;
        }
    }
    let cfg = ctx.cell_config("fig6", "VPN-app", "RF", "per-flow");
    let t = Instant::now();
    let rf =
        run_shallow(&prep, ShallowModel::Rf, SplitPolicy::PerFlow, FeatureConfig::default(), &cfg);
    let rf_s = secs(t.elapsed());
    same("RF", "per-flow", rf.accuracy, rf.macro_f1)?;
    let kernel_dispatches = dispatches() - k0;

    let traced_sweep = prepare_s + pretrain_s + tokenize_s + frozen_s + unfrozen_s + rf_s;
    put(m, "traffic_synth.generate_s", generate_s, "s");
    put(m, "dataset.prepare_s", prepare_s, "s");
    put(m, "encoders.tokenize_s", tokenize_s, "s");
    put(m, "encoders.pretrain_s", pretrain_s, "s");
    put(m, "core.cell_frozen_s", frozen_s, "s");
    put(m, "core.cell_unfrozen_s", unfrozen_s, "s");
    put(m, "shallow.rf_cell_s", rf_s, "s");
    put(m, "nn.kernel_dispatches", kernel_dispatches, "count");
    put(m, "process.user_s", sweep.user_s, "s");
    put(m, "process.sys_s", sweep.sys_s, "s");
    put(m, "process.minor_faults", sweep.minor_faults as f64, "count");
    put(m, "trace.sweep_s", traced_sweep, "s");
    put(m, "trace.sweep_overhead_pct", (traced_sweep / sweep.wall_s - 1.0) * 100.0, "%");

    checkpoints(&ctx, &encs, &prep, work, m)?;
    artifacts(seed, &ctx, &encs, &prep, work, m)
}

/// `EncoderStore::get_or_build` on an empty directory (save), then in
/// a fresh store over the same directory (load).
fn checkpoints(
    ctx: &RunContext,
    encs: &[(ModelKind, EncoderModel)],
    prep: &PreparedTask,
    work: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let sink = ObsSink::stderr(LogFormat::Text);
    let dir = work.join("layers-checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    let key = |kind: ModelKind| {
        EncoderSpec::pretrained(kind).pretrain_key(ctx.budget, ctx.pretrain_seed())
    };

    let store = EncoderStore::new(Some(dir.clone()));
    let mut clone_s = 0.0;
    let t = Instant::now();
    for (kind, enc) in encs {
        store.get_or_build(&key(*kind), &sink, || {
            let t = Instant::now();
            let e = enc.clone();
            clone_s += secs(t.elapsed());
            e
        });
    }
    let save_s = secs(t.elapsed()) - clone_s;
    let bytes = dir_bytes(&dir);

    let store = EncoderStore::new(Some(dir.clone()));
    let mut rebuilt = false;
    let t = Instant::now();
    let loaded: Vec<EncoderModel> = encs
        .iter()
        .map(|(kind, enc)| {
            store.get_or_build(&key(*kind), &sink, || {
                rebuilt = true;
                enc.clone()
            })
        })
        .collect();
    let load_s = secs(t.elapsed());
    if rebuilt {
        return Err("a checkpoint written by the first store did not load".into());
    }
    for ((kind, enc), back) in encs.iter().zip(&loaded) {
        if probe_digest(enc, &prep.data.records) != probe_digest(back, &prep.data.records) {
            return Err(format!("{} checkpoint round trip changed the encoder", kind.name()));
        }
    }
    put(m, "engine.checkpoint_save_s", save_s, "s");
    put(m, "engine.checkpoint_load_s", load_s, "s");
    put(m, "encoders.checkpoint_mb", mib(bytes), "MiB");
    // The Pcap-Encoder checkpoint just written is exactly the one
    // `table7` loads from a warm cache.
    let r = table7_transparency(ctx.seed, &dir, work);
    let _ = std::fs::remove_dir_all(&dir);
    let (cold_s, warm_s) = r?;
    put(m, "engine.table7_s", cold_s, "s");
    put(m, "engine.table7_warm_s", warm_s, "s");
    Ok(())
}

/// The prepared dataset, its feature matrix and the six token matrices
/// stored in a disk `ArtifactCache` (save) and looked up in a fresh
/// cache over the same directory (load).
fn artifacts(
    seed: u64,
    ctx: &RunContext,
    encs: &[(ModelKind, EncoderModel)],
    prep: &PreparedTask,
    work: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = work.join("layers-artifacts");
    let _ = std::fs::remove_dir_all(&dir);
    let base = [
        Task::VpnApp.dataset().name().to_string(),
        format!("{seed:016x}"),
        ((ctx.scale * 1000.0) as u64).to_string(),
    ];
    let parts = |extra: &str| -> Vec<String> {
        let mut p = base.to_vec();
        if !extra.is_empty() {
            p.push(extra.to_string());
        }
        p
    };
    fn as_str(p: &[String]) -> Vec<&str> {
        p.iter().map(String::as_str).collect()
    }

    let dataset = DatasetArtifact { data: prep.data.clone(), clean: prep.clean_report.clone() };
    let features = FeatureMatrix(prep.features(FeatureConfig::default()).0.clone());
    let tokens: Vec<(String, TokenMatrix)> = encs
        .iter()
        .map(|(kind, enc)| {
            (
                kind.name().to_string(),
                TokenMatrix(prep.tokens(enc, TokenVariant::Repeated).0.clone()),
            )
        })
        .collect();
    let (want_d, want_f) = (dataset.to_bytes(), features.to_bytes());
    let want_t: Vec<Vec<u8>> = tokens.iter().map(|(_, t)| t.to_bytes()).collect();

    let cache = ArtifactCache::new(Some(dir.clone()));
    let t = Instant::now();
    cache.store(&as_str(&parts("")), dataset);
    cache.store(&as_str(&parts("features")), features);
    for (name, tm) in tokens {
        cache.store(&as_str(&parts(&format!("tokens-{name}"))), tm);
    }
    let save_s = secs(t.elapsed());
    let bytes = dir_bytes(&dir);

    let cache = ArtifactCache::new(Some(dir.clone()));
    let t = Instant::now();
    let d = cache.lookup::<DatasetArtifact>(&as_str(&parts("")));
    let f = cache.lookup::<FeatureMatrix>(&as_str(&parts("features")));
    let tk: Vec<_> = encs
        .iter()
        .map(|(kind, _)| {
            cache.lookup::<TokenMatrix>(&as_str(&parts(&format!("tokens-{}", kind.name()))))
        })
        .collect();
    let load_s = secs(t.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
    let (Some(d), Some(f)) = (d, f) else {
        return Err("a stored artifact did not load".into());
    };
    if d.to_bytes() != want_d || f.to_bytes() != want_f {
        return Err("artifact round trip changed the dataset or features".into());
    }
    for (got, want) in tk.iter().zip(&want_t) {
        match got {
            Some(t) if t.to_bytes() == *want => {}
            _ => return Err("artifact round trip changed a token matrix".into()),
        }
    }
    put(m, "core.artifact_save_s", save_s, "s");
    put(m, "core.artifact_load_s", load_s, "s");
    put(m, "core.artifact_mb", mib(bytes), "MiB");
    Ok(())
}

/// Packet iterator that records the interval between successive pulls:
/// the engine's service time per packet.
struct Pulls<'a> {
    it: std::slice::Iter<'a, ReplayPacket>,
    last: Option<Instant>,
    gaps: &'a mut Vec<u64>,
}

impl<'a> Iterator for Pulls<'a> {
    type Item = &'a ReplayPacket;

    fn next(&mut self) -> Option<&'a ReplayPacket> {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.gaps.push((now - last).as_nanos() as u64);
        }
        self.last = Some(now);
        self.it.next()
    }
}

/// Majority label; ties go to the smallest label.
fn majority(labels: &[u16]) -> u16 {
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for &l in labels {
        match counts.iter_mut().find(|(c, _)| *c == l) {
            Some((_, n)) => *n += 1,
            None => counts.push((l, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts.first().map_or(0, |c| c.0)
}

/// What the per-layer chain measured over one replay.
#[derive(Default)]
struct Chain {
    labels: HashMap<u64, u16>,
    wall_s: f64,
    push: Duration,
    poll: Duration,
    policy: Duration,
    features: Duration,
    model: Duration,
    head: Duration,
    flows: usize,
    evicted: usize,
    live_peak: usize,
}

/// Replay through `FlowTable` → policy → features + forest (`forest`)
/// or encoder + head in batches of [`BATCH`] (`encoder`).
fn chain(
    replay: &[ReplayPacket],
    bundle: &ModelBundle,
    policy: &Policy,
    target: &str,
) -> Result<Chain, String> {
    let mut c = Chain::default();
    let mut table = FlowTable::new(IDLE_TIMEOUT)?;
    let mut pending: Vec<TrackedFlow> = Vec::new();
    let mut scratch = EncodeScratch::default();
    let (mut x, mut mlp, mut out) = (Tensor::default(), MlpScratch::default(), Vec::new());
    let mut classify = |c: &mut Chain, flows: &[TrackedFlow]| {
        if target == "forest" {
            for f in flows {
                let t = Instant::now();
                let rows: Vec<_> =
                    f.records.iter().map(|r| extract_features(r, SERVING_FEATURES)).collect();
                let t1 = Instant::now();
                let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
                let label = majority(&bundle.forest.predict(&refs));
                c.features += t1 - t;
                c.model += t1.elapsed();
                c.labels.insert(f.id, label);
            }
        } else {
            let recs: Vec<Vec<&PacketRecord>> =
                flows.iter().map(|f| f.records.iter().collect()).collect();
            let t = Instant::now();
            bundle.encoder.encode_flows_into(&recs, &mut scratch, &mut x);
            let t1 = Instant::now();
            bundle.head.predict_into(&x, &mut mlp, &mut out);
            c.model += t1 - t;
            c.head += t1.elapsed();
            for (f, &l) in flows.iter().zip(out.iter()) {
                c.labels.insert(f.id, l);
            }
        }
    };
    let mut route = |c: &mut Chain, pending: &mut Vec<TrackedFlow>, flows: Vec<TrackedFlow>| {
        for f in flows {
            c.flows += 1;
            let t = Instant::now();
            let rule = policy.match_flow(&f.key).map(|r| r.target.as_str());
            c.policy += t.elapsed();
            if rule == Some(target) {
                pending.push(f);
            }
            if pending.len() == BATCH {
                classify(c, pending);
                pending.clear();
            }
        }
    };
    let t_all = Instant::now();
    for (seq, p) in replay.iter().enumerate() {
        let t0 = Instant::now();
        table.push(seq as u64, p.ts, &p.frame);
        let t1 = Instant::now();
        let due = table.poll(p.ts);
        c.poll += t1.elapsed();
        c.push += t1 - t0;
        c.live_peak = c.live_peak.max(table.len() + due.len());
        c.evicted += due.len();
        route(&mut c, &mut pending, due.into_iter().map(|(f, _)| f).collect());
    }
    route(&mut c, &mut pending, table.flush().into_iter().map(|(f, _)| f).collect());
    if !pending.is_empty() {
        classify(&mut c, &pending);
    }
    c.wall_s = secs(t_all.elapsed());
    Ok(c)
}

/// Untraced replays through `serve`, timed per packet by [`Pulls`]:
/// median packets/s plus the pooled service times.
fn timed_replays(
    replay: &[ReplayPacket],
    bundle: &ModelBundle,
    policy: &Policy,
) -> Result<(Vec<u8>, serving::engine::ServeStats, f64, Vec<u64>), String> {
    let mut gaps = Vec::with_capacity(2 * (replay.len() + 1));
    let mut pps = Vec::new();
    let mut first: Option<(Vec<u8>, serving::engine::ServeStats)> = None;
    for _ in 0..2 {
        let pulls = Pulls { it: replay.iter(), last: None, gaps: &mut gaps };
        let s = serve_once(bundle, policy, pulls, BATCH, 1 << 20)?;
        pps.push(replay.len() as f64 / s.wall_s);
        match &first {
            None => first = Some((s.stream, s.stats)),
            Some((stream, _)) if *stream != s.stream => {
                return Err("two untraced replays served different verdicts".into())
            }
            Some(_) => {}
        }
    }
    let (stream, stats) = first.expect("two replays");
    Ok((stream, stats, median(&pps).unwrap_or(f64::NAN), gaps))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn serving_layers(seed: u64, work: &Path, m: &mut Metrics) -> Result<(), String> {
    let t = Instant::now();
    let records = replay_head(seed, |s| s.trace().records)?;
    let train = SynthSpec::parse(&train_spec(seed))?.trace();
    let source_s = secs(t.elapsed());
    let truth: Vec<u16> = records.iter().map(|r| r.class).collect();
    let replay: Vec<ReplayPacket> =
        records.into_iter().map(|r| ReplayPacket { ts: r.ts, frame: r.frame }).collect();

    let t = Instant::now();
    let trained = ModelBundle::train(&Prepared::from_trace(&train), seed);
    let bundle_train_s = secs(t.elapsed());
    let dir = work.join("layers-bundle");
    trained.save(&dir).map_err(|e| format!("bundle save: {e}"))?;
    drop(trained);
    let t = Instant::now();
    let bundle = ModelBundle::load(&dir)?;
    let bundle_load_s = secs(t.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
    put(m, "serving.source_s", source_s, "s");
    put(m, "serving.bundle_train_s", bundle_train_s, "s");
    put(m, "serving.bundle_load_s", bundle_load_s, "s");

    let n = replay.len();
    let ts: Vec<f64> = replay.iter().map(|p| p.ts).collect();
    let non_ip = crate::checks::count_non_ip(replay.iter().map(|p| &p.frame));
    let t = Instant::now();
    let parsed = replay.iter().filter(|p| ParsedFrame::parse(&p.frame).is_ok()).count();
    let parse_ns = t.elapsed().as_nanos() as f64 / n as f64;
    std::hint::black_box(parsed);
    put(m, "net_packet.parse_ns", parse_ns, "ns");

    for target in ["forest", "encoder"] {
        let policy = Policy::parse(&policy_text(target)).map_err(|e| format!("policy: {e}"))?;
        let (stream, stats, pps, mut gaps) = timed_replays(&replay, &bundle, &policy)?;
        let verdicts: Vec<Verdict> = check_replay(&stream, &stats, &ts, non_ip)?;
        let c = chain(&replay, &bundle, &policy, target)?;
        check_labels(&verdicts, &c.labels).map_err(|e| format!("{target} chain: {e}"))?;
        let right = verdicts.iter().filter(|v| truth[v.flow as usize] == v.label).count();
        eprintln!(
            "{target}: {right}/{} verdicts match the generator's class ({:.1}%)",
            verdicts.len(),
            100.0 * right as f64 / verdicts.len().max(1) as f64
        );
        let p50 = percentile(&mut gaps, 50.0).ok_or("too few packets for p50")?;
        let p99 = percentile(&mut gaps, 99.0).ok_or("too few packets for p99")?;
        let traced_pps = n as f64 / c.wall_s;
        let per_flow = |d: Duration| d.as_secs_f64() * 1e6 / c.labels.len().max(1) as f64;
        put(m, &format!("serving.{target}_packets_per_s"), pps, "1/s");
        put(m, &format!("serving.{target}_packet_p50_us"), us(p50), "us");
        put(m, &format!("serving.{target}_packet_p99_us"), us(p99), "us");
        put(m, &format!("trace.{target}_pps_overhead_pct"), (1.0 - traced_pps / pps) * 100.0, "%");
        if target == "forest" {
            let per_packet = |d: Duration| d.as_nanos() as f64 / n as f64;
            put(m, "serving.flow_push_ns", per_packet(c.push), "ns");
            put(m, "serving.flow_poll_ns", per_packet(c.poll), "ns");
            put(m, "serving.flows_evicted", c.evicted as f64, "count");
            put(m, "serving.flows_live_peak", c.live_peak as f64, "count");
            put(
                m,
                "serving.policy_match_ns",
                c.policy.as_nanos() as f64 / c.flows.max(1) as f64,
                "ns",
            );
            put(m, "shallow.features_us", per_flow(c.features), "us");
            put(m, "shallow.forest_us", per_flow(c.model), "us");
        } else {
            put(m, "encoders.encode_us", per_flow(c.model), "us");
            put(m, "nn.head_us", per_flow(c.head), "us");
        }
    }
    Ok(())
}
