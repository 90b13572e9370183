//! The in-process workload, `aqhi_retrain`, and the session set-up and
//! wave loop that `lrb_served`'s in-process reference shares with it: one
//! caller running waves back to back (a closed loop) through
//! `SmartFluxSession`.
//!
//! A run sets the same session up [`SETUPS`] times. The first session is
//! timed (and, in a traced run, instrumented). The second replays the
//! first waves of the window next to a synchronous twin to measure
//! confidence, and must decide exactly as the first did. In a traced run
//! the third replays the whole window untraced, which gives the tracing
//! overhead and the traced-versus-untraced decision check. The others
//! only time set-up and build a model.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use smartflux::{
    telemetry_names, DurabilityOptions, KnowledgeBase, MetricsSnapshot, Phase, Predictor,
    SmartFluxSession, SyncPolicy,
};
use smartflux_datastore::DataStore;
use smartflux_durability::CHECKPOINT_FILE;
use smartflux_wms::StepId;

use crate::ledger::{
    managed_steps, peak_rss_mb, scratch_dir, trail_checksum, EndToEnd, Family, Report, SyncTwin,
};
use crate::served::Feed;
use crate::stats::{mean, median};
use crate::trace::{instrument_steps, Recorder, StoreOps, TimedPolicy, WaveSummary};

/// Independent setups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A timed window always runs at least this many waves; deterministic
/// counts are taken over exactly these first waves.
pub const COUNT_WAVES: usize = 200;

/// Waves per telemetry on/off block when pricing telemetry.
const TOGGLE_BLOCK: u64 = 16;

/// Shape of an in-process session.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workflow family.
    pub family: Family,
    /// Runs `run_wave_parallel` (the level-parallel wave loop) instead of
    /// the sequential `run_wave`.
    pub parallel: bool,
    /// WAL plus checkpoints every this many waves (`SyncPolicy::Never`).
    pub checkpoint_interval: u64,
    /// Application waves between retrainings.
    pub retraining: Option<u64>,
    /// The source step is a no-op and each wave's input arrives as a batch
    /// of writes generated outside the session, as over the wire.
    pub fed: bool,
    /// Window waves replayed next to the synchronous twin for confidence.
    pub replay_waves: usize,
}

/// The durability layer's default checkpoint cadence.
const DEFAULT_CHECKPOINT_INTERVAL: u64 = 50;

/// AQHI, level-parallel loop, telemetry and WAL on with default
/// checkpoints, retraining every 384 application waves, so every window
/// holds whole training → model build → application cycles.
pub const AQHI_RETRAIN: Spec = Spec {
    family: Family::Aqhi,
    parallel: true,
    checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
    retraining: Some(384),
    fed: false,
    replay_waves: 768,
};

/// One wave as the caller saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaveRec {
    /// Wave number.
    pub wave: u64,
    /// Ran in the application phase.
    pub app: bool,
    /// Ended a training phase (built the model).
    pub build: bool,
    /// Latency of the call, in µs.
    pub us: f64,
    /// Steps executed.
    pub executed: u64,
    /// Steps skipped.
    pub skipped: u64,
    /// Steps deferred.
    pub deferred: u64,
    /// Managed (QoD, not always-run) steps executed.
    pub managed_executed: u64,
    /// Managed steps executed or skipped.
    pub managed_scheduled: u64,
    /// The wave returned an error.
    pub failed: bool,
}

/// A session plus what the benchmark needs to drive it.
pub struct Live {
    /// The session.
    pub session: SmartFluxSession,
    managed: Vec<StepId>,
    dir: PathBuf,
    parallel: bool,
    feed: Option<Feed>,
    rec: Option<(Arc<Recorder>, usize)>,
}

impl Live {
    /// Runs one wave, timing the call (and, when traced, recording it as a
    /// `wave` root span). A fed session first applies the wave's batch,
    /// inside the timed call, as the network host does.
    pub fn run_wave(&mut self) -> WaveRec {
        let wave = self.session.scheduler().next_wave();
        let batch = self.feed.as_ref().map(|f| f.batch(wave));
        let before = self.session.phase();
        let root = self
            .rec
            .as_ref()
            .map(|(r, lane)| r.open_root(*lane, "wave", wave));
        let t = Instant::now();
        let mut result = Ok(());
        if let Some(batch) = batch {
            let store = self.session.scheduler().store().clone();
            for w in batch {
                if store
                    .put(&w.table, &w.family, &w.row, &w.qualifier, w.value)
                    .is_err()
                {
                    result = Err(());
                }
            }
        }
        let outcome = if self.parallel {
            self.session.run_wave_parallel()
        } else {
            self.session.run_wave()
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        drop(root);
        if let Some((r, lane)) = &self.rec {
            r.finish_wave(*lane);
        }
        let after = self.session.phase();
        let mut rec = WaveRec {
            wave,
            app: before == Phase::Application,
            build: before != Phase::Application && after == Phase::Application,
            us,
            failed: result.is_err(),
            ..WaveRec::default()
        };
        match outcome {
            Ok(o) => {
                rec.executed = o.executed.len() as u64;
                rec.skipped = o.skipped.len() as u64;
                rec.deferred = o.deferred.len() as u64;
                for m in &self.managed {
                    if o.did_execute(*m) {
                        rec.managed_executed += 1;
                        rec.managed_scheduled += 1;
                    } else if o.skipped.contains(m) {
                        rec.managed_scheduled += 1;
                    }
                }
            }
            Err(_) => rec.failed = true,
        }
        rec
    }

    fn checkpoint_bytes(&self) -> u64 {
        std::fs::metadata(self.dir.join(CHECKPOINT_FILE)).map_or(0, |m| m.len())
    }

    /// Decision-trail checksum of every wave up to `last_wave`.
    #[must_use]
    pub fn checksum_through(&self, last_wave: u64) -> u64 {
        let diags = self.session.diagnostics();
        trail_checksum(diags.iter().filter(|d| d.wave <= last_wave))
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one setup measured.
#[derive(Debug, Default)]
pub struct SetupStats {
    /// Wall time from an empty store to the first application wave.
    pub secs: f64,
    /// The training waves.
    pub waves: Vec<WaveRec>,
}

/// Builds a session of `spec` seeded by `seed` and runs its training
/// phase. With `rec`, its steps, store and engine record on that lane.
///
/// # Panics
///
/// Panics if the session cannot be built (a bug, not an input condition).
pub fn setup(
    spec: &Spec,
    seed: u64,
    tag: &str,
    rec: Option<(Arc<Recorder>, usize)>,
) -> (Live, SetupStats) {
    let t = Instant::now();
    let store = DataStore::new();
    let mut workflow = if spec.fed {
        crate::served::host_workflow(seed, &store)
    } else {
        spec.family.factory(seed).build(&store)
    };
    let managed = managed_steps(&workflow);
    if let Some((r, lane)) = &rec {
        instrument_steps(&mut workflow, r, *lane);
        store.register_op_observer(Arc::new(StoreOps {
            rec: Arc::clone(r),
            lane: *lane,
        }));
    }
    let dir = scratch_dir(tag);
    let mut config = spec
        .family
        .engine_config(seed)
        .with_telemetry(true)
        .with_durability(
            DurabilityOptions::new(&dir)
                .with_sync(SyncPolicy::Never)
                .with_checkpoint_interval(spec.checkpoint_interval),
        );
    if let Some(interval) = spec.retraining {
        config = config.with_retraining_interval(interval);
    }
    let mut session = SmartFluxSession::new(workflow, store, config).expect("session builds");
    if let Some((r, lane)) = &rec {
        let engine = session.engine();
        session.scheduler_mut().swap_policy(Box::new(TimedPolicy {
            inner: engine,
            rec: Arc::clone(r),
            lane: *lane,
        }));
    }
    let mut live = Live {
        session,
        managed,
        dir,
        parallel: spec.parallel,
        feed: spec.fed.then(|| Feed::new(seed)),
        rec,
    };
    let mut stats = SetupStats::default();
    while matches!(live.session.phase(), Phase::Training { .. }) {
        stats.waves.push(live.run_wave());
    }
    stats.secs = t.elapsed().as_secs_f64();
    (live, stats)
}

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds: one part of a timed window. The `first`
    /// part also runs at least [`COUNT_WAVES`] waves and takes the
    /// deterministic counts over them; the `last` part of a retraining
    /// workload then finishes the cycle it is in, so the window holds
    /// whole training → application cycles.
    Time {
        /// Seconds.
        secs: f64,
        /// First part of the window.
        first: bool,
        /// Last part of the window.
        last: bool,
    },
    /// After exactly this many waves, counting the first ones.
    Waves(usize),
}

/// What running waves back to back measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every wave run.
    pub waves: Vec<WaveRec>,
    /// Wall time.
    pub secs: f64,
    /// Telemetry before the pass and after the counted waves.
    pub telemetry: Option<(MetricsSnapshot, MetricsSnapshot)>,
    /// Checkpoint size after the last checkpoint among the counted waves.
    pub checkpoint_bytes: u64,
    /// Application waves compared with the synchronous twin.
    pub twin_app_waves: u64,
    /// Of which within `maxε`.
    pub twin_compliant: u64,
    /// Twin (SDF) wave latencies, µs.
    pub sdf_us: Vec<f64>,
    /// Application-wave latencies with telemetry as configured, µs.
    pub telemetry_on_us: Vec<f64>,
    /// Application-wave latencies with telemetry switched off, µs.
    pub telemetry_off_us: Vec<f64>,
}

impl Pass {
    /// Appends a later part of the same window.
    pub fn extend(&mut self, later: Pass) {
        self.waves.extend(later.waves);
        self.secs += later.secs;
    }
}

/// Runs waves back to back on `live` until `stop`. The first `twin_waves`
/// waves run next to a synchronous twin forked from the session (the
/// session must sit at the end of a training phase); with `toggle`,
/// telemetry alternates between configured and off in blocks over those
/// waves, which prices it.
pub fn pass(
    spec: &Spec,
    live: &mut Live,
    seed: u64,
    stop: Stop,
    twin_waves: usize,
    toggle: bool,
) -> Pass {
    let factory = spec.family.factory(seed);
    let mut twin = (twin_waves > 0).then(|| SyncTwin::fork(&*factory, &live.session));
    let configured = live.session.telemetry().is_enabled();
    let interval = spec.checkpoint_interval;
    let t = Instant::now();
    let before = live.session.telemetry().snapshot();
    let mut p = Pass::default();
    let counting = !matches!(stop, Stop::Time { first: false, .. });
    loop {
        let i = p.waves.len();
        let done = match stop {
            Stop::Waves(n) => i >= n,
            Stop::Time { secs, first, last } => {
                (!first || i >= COUNT_WAVES)
                    && t.elapsed().as_secs_f64() >= secs
                    && (!last
                        || spec.retraining.is_none()
                        || p.waves.last().is_some_and(|r| r.build))
            }
        };
        if done {
            break;
        }
        let twinned = i < twin_waves;
        let on = !(twinned && toggle) || (i as u64 / TOGGLE_BLOCK).is_multiple_of(2);
        if toggle {
            live.session.telemetry().set_enabled(configured && on);
        }
        let rec = live.run_wave();
        p.waves.push(rec);
        if let (true, Some(tw)) = (twinned, twin.as_mut()) {
            p.sdf_us.push(tw.run_wave().as_secs_f64() * 1e6);
            if rec.app {
                p.twin_app_waves += 1;
                if tw.compliant(tw.divergence(live.session.scheduler().store())) {
                    p.twin_compliant += 1;
                }
                if on {
                    p.telemetry_on_us.push(rec.us);
                } else {
                    p.telemetry_off_us.push(rec.us);
                }
            }
            if i + 1 == twin_waves {
                twin = None;
                live.session.telemetry().set_enabled(configured);
            }
        }
        if counting && p.waves.len() <= COUNT_WAVES && rec.wave.is_multiple_of(interval) {
            p.checkpoint_bytes = live.checkpoint_bytes();
        }
        if counting && p.waves.len() == COUNT_WAVES {
            p.telemetry = Some((before.clone(), live.session.telemetry().snapshot()));
        }
    }
    live.session.telemetry().set_enabled(configured);
    p.secs = t.elapsed().as_secs_f64();
    p
}

/// Latencies of the application waves that completed, µs.
#[must_use]
pub fn app_us(waves: &[WaveRec]) -> Vec<f64> {
    waves
        .iter()
        .filter(|w| w.app && !w.failed)
        .map(|w| w.us)
        .collect()
}

/// Runs an in-process workload and reports end-to-end metrics, or, with
/// `traced`, per-layer metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, name: &str) -> Report {
    let mut report = Report::default();
    let rec = traced.then(|| Recorder::new(1));
    // The window runs in `SETUPS` parts with the other setups between
    // them, so set-up, model builds and window waves all sample the host
    // across the whole run rather than one stretch of it.
    let part = |first, last| Stop::Time {
        secs: seconds / SETUPS as f64,
        first,
        last,
    };
    let (mut timed, first) = setup(
        spec,
        seed,
        &format!("{name}-0"),
        rec.clone().map(|r| (r, 0)),
    );
    let mut setups = vec![first];
    let setup_summaries = rec.as_ref().map(|r| r.take_summaries()).unwrap_or_default();
    if let Some(r) = &rec {
        r.restart_export();
    }
    let mut w = pass(spec, &mut timed, seed, part(true, false), 0, false);
    // The workload's own peak: read while only the timed session exists,
    // before the further setups, kept sessions and twins add theirs.
    let peak_rss = peak_rss_mb();
    let mut kept = Vec::new();
    for i in 1..SETUPS {
        let (live, stats) = setup(spec, seed, &format!("{name}-{i}"), None);
        setups.push(stats);
        if kept.len() < 2 {
            kept.push(live);
        }
        w.extend(pass(
            spec,
            &mut timed,
            seed,
            part(false, i + 1 == SETUPS),
            0,
            false,
        ));
    }
    let mut untraced = kept.pop().expect("SETUPS keeps a third session");
    let mut replayer = kept.pop().expect("SETUPS keeps a second session");
    let kb: KnowledgeBase = replayer.session.knowledge_base();

    let window_summaries = rec.as_ref().map(|r| r.take_summaries()).unwrap_or_default();
    report.attempted = w.waves.len() as u64;
    report.failed = w.waves.iter().filter(|r| r.failed).count() as u64;
    let last_wave = w.waves.last().map_or(0, |r| r.wave);

    // Confidence, and the determinism check: the replaying session must
    // decide exactly as the timed one did over the same waves.
    let replay_waves = spec.replay_waves.min(w.waves.len());
    let rp = pass(
        spec,
        &mut replayer,
        seed,
        Stop::Waves(replay_waves),
        replay_waves,
        traced,
    );
    let replay_last = rp.waves.last().map_or(0, |r| r.wave);
    let (a, b) = (
        timed.checksum_through(replay_last),
        replayer.checksum_through(replay_last),
    );
    report.check(
        "replay_decides_identically",
        a == b,
        format!("trail checksum {a:016x} vs {b:016x} through wave {replay_last}"),
    );
    report.check(
        "confidence_measured",
        rp.twin_app_waves > 0,
        format!(
            "{} application waves compared with the synchronous twin",
            rp.twin_app_waves
        ),
    );
    report.notes.push(format!(
        "decision trail through wave {last_wave}: {:016x}",
        timed.checksum_through(last_wave)
    ));

    if traced {
        let twin = pass(
            spec,
            &mut untraced,
            seed,
            Stop::Waves(w.waves.len()),
            0,
            false,
        );
        let (a, b) = (
            timed.checksum_through(last_wave),
            untraced.checksum_through(last_wave),
        );
        report.check(
            "traced_equals_untraced",
            a == b,
            format!("trail checksum {a:016x} traced vs {b:016x} untraced through wave {last_wave}"),
        );
        if let Some(r) = &rec {
            write_trace(&mut report, r, name, seed);
        }
        let ml = ml_layer(spec, seed, &kb, &timed);
        engine_layers(
            &mut report,
            spec,
            &setup_summaries,
            &window_summaries,
            &w,
            &rp,
            &ml,
        );
        for (name, unit) in NET_LAYERS {
            report.metric(name, 0.0, unit, "in-process: no wire, no load generator");
        }
        let root_self: u64 = window_summaries.iter().map(|s| s.root_self_ns).sum();
        let root: u64 = window_summaries.iter().map(|s| s.root_ns).sum();
        report.metric(
            "trace.residual_share",
            if root == 0 {
                0.0
            } else {
                root_self as f64 / root as f64
            },
            "ratio",
            "wave time under no layer span",
        );
        let (traced_p50, untraced_p50) = (median(&app_us(&w.waves)), median(&app_us(&twin.waves)));
        report.metric(
            "trace.overhead",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50 - 1.0
            } else {
                0.0
            },
            "ratio",
            format!(
                "application wave p50 traced {traced_p50:.1} us vs untraced {untraced_p50:.1} us"
            ),
        );
    } else {
        end_to_end(&mut report, &w, &setups, &rp, peak_rss);
    }
    report
}

/// Per-layer metrics of the wire and the load generator, zero in process.
pub const NET_LAYERS: [(&str, &str); 5] = [
    ("net.request_bytes", "bytes"),
    ("net.wire_us", "us"),
    ("net.busy", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
];

/// Writes the kept spans next to the benchmark and notes where.
pub fn write_trace(report: &mut Report, rec: &Recorder, name: &str, seed: u64) {
    let path = crate::ledger::out_dir().join(format!("{name}-seed{seed}.trace.json"));
    if std::fs::create_dir_all(crate::ledger::out_dir()).is_ok()
        && std::fs::write(&path, rec.perfetto_json()).is_ok()
    {
        report
            .notes
            .push(format!("perfetto trace: {}", path.display()));
    }
}

fn end_to_end(report: &mut Report, w: &Pass, setups: &[SetupStats], rp: &Pass, peak_rss: f64) {
    let all: Vec<&WaveRec> = setups
        .iter()
        .flat_map(|s| s.waves.iter())
        .chain(w.waves.iter())
        .collect();
    let train: Vec<f64> = all
        .iter()
        .filter(|r| !r.app && !r.failed)
        .map(|r| r.us)
        .collect();
    let builds: Vec<f64> = all.iter().filter(|r| r.build).map(|r| r.us / 1e6).collect();
    let setup_secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let managed = w.waves.iter().filter(|r| r.app).fold((0, 0), |(e, s), r| {
        (e + r.managed_executed, s + r.managed_scheduled)
    });
    report.end_to_end(&EndToEnd {
        completed: w.waves.iter().filter(|r| !r.failed).count(),
        window_secs: w.secs,
        load: "closed loop, 1 caller",
        app_us: &app_us(&w.waves),
        train_us: &train,
        builds_s: &builds,
        setups_s: &setup_secs,
        peak_rss_mb: peak_rss,
        managed,
        within_bound: (rp.twin_compliant, rp.twin_app_waves),
    });
}

/// ML-layer figures: a fresh model build on a knowledge base and the
/// engine's per-step query replayed on a session's application impacts.
pub struct MlLayer {
    train_s: f64,
    kb_rows: usize,
    predict_step_ns: f64,
}

/// Measures the ML layer from outside: `Predictor::train` on `kb`, then
/// `Predictor::predict_step` on up to 2000 application impact vectors.
#[must_use]
pub fn ml_layer(spec: &Spec, seed: u64, kb: &KnowledgeBase, live: &Live) -> MlLayer {
    let config = spec.family.engine_config(seed);
    let mut predictor = Predictor::new(config.model.clone(), config.seed);
    let t = Instant::now();
    let trained = predictor.train(kb).is_ok();
    let train_s = t.elapsed().as_secs_f64();
    let rows: Vec<Vec<f64>> = live
        .session
        .diagnostics()
        .iter()
        .filter(|d| !d.training)
        .take(2000)
        .map(|d| d.impacts.clone())
        .collect();
    let mut calls = 0u64;
    let t = Instant::now();
    if trained {
        for impacts in &rows {
            for j in 0..impacts.len() {
                let _ =
                    std::hint::black_box(predictor.predict_step(j, std::hint::black_box(impacts)));
                calls += 1;
            }
        }
    }
    let elapsed = t.elapsed();
    MlLayer {
        train_s,
        kb_rows: kb.len(),
        predict_step_ns: if calls == 0 {
            0.0
        } else {
            elapsed.as_secs_f64() * 1e9 / calls as f64
        },
    }
}

/// Sum of histogram counts (one per span or timed op) between two
/// snapshots.
fn spans_between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> u64 {
    let total = |s: &MetricsSnapshot| s.histograms.values().map(|h| h.count).sum::<u64>();
    total(b).saturating_sub(total(a))
}

fn per_wave_us(ws: &[WaveSummary], name: &str) -> f64 {
    ws.iter().map(|s| s.get(name).incl_ns).sum::<u64>() as f64 / ws.len().max(1) as f64 / 1e3
}

fn mean_where_present<'a>(ws: impl Iterator<Item = &'a WaveSummary>, name: &str) -> f64 {
    let v: Vec<f64> = ws
        .filter(|s| s.names.contains_key(name))
        .map(|s| s.get(name).incl_ns as f64 / 1e3)
        .collect();
    mean(&v)
}

/// The session-side layers (engine, ML, steps, scheduler, store,
/// durability, telemetry, synchronous reference) of one instrumented
/// session: `setup` and `window` are its wave summaries, `w` its timed
/// pass and `rp` the pass that ran next to the synchronous twin.
pub fn engine_layers(
    report: &mut Report,
    spec: &Spec,
    setup: &[WaveSummary],
    window: &[WaveSummary],
    w: &Pass,
    rp: &Pass,
    ml: &MlLayer,
) {
    report.metric(
        "engine.trigger_us",
        per_wave_us(window, "engine.trigger"),
        "us",
        "should_trigger, per window wave",
    );
    report.metric(
        "engine.completed_us",
        per_wave_us(window, "engine.completed"),
        "us",
        "step_completed, per window wave",
    );
    report.metric(
        "engine.end_wave_us",
        mean_where_present(window.iter(), "engine.end_wave"),
        "us",
        "end_wave, per application wave",
    );
    report.metric(
        "engine.train_end_wave_us",
        mean_where_present(setup.iter().chain(window), "engine.train_end_wave"),
        "us",
        "end_wave, per training wave that builds no model (setup included)",
    );
    report.metric(
        "ml.train_s",
        ml.train_s,
        "s",
        "Predictor::train on the knowledge base of the first model build",
    );
    report.metric(
        "ml.kb_rows",
        ml.kb_rows as f64,
        "count",
        "knowledge-base rows at the first model build",
    );
    report.metric(
        "ml.predict_step_ns",
        ml.predict_step_ns,
        "ns",
        "Predictor::predict_step replayed on application impacts",
    );
    report.metric(
        "steps.exec_us",
        per_wave_us(window, "steps.exec"),
        "us",
        "step executions, per window wave",
    );
    let root_self: u64 = window.iter().map(|s| s.root_self_ns).sum();
    report.metric(
        "wms.self_us",
        root_self as f64 / window.len().max(1) as f64 / 1e3,
        "us",
        "wave minus engine hooks, steps and store calls, per window wave",
    );

    let counted = &w.waves[..COUNT_WAVES.min(w.waves.len())];
    let cn = counted.len().max(1) as f64;
    let per_counted = |f: fn(&WaveRec) -> u64| counted.iter().map(f).sum::<u64>() as f64 / cn;
    report.metric(
        "wms.executed_per_wave",
        per_counted(|r| r.executed),
        "count",
        "",
    );
    report.metric(
        "wms.skipped_per_wave",
        per_counted(|r| r.skipped),
        "count",
        "",
    );
    report.metric(
        "wms.deferred_per_wave",
        per_counted(|r| r.deferred),
        "count",
        "",
    );
    let cs = &window[..COUNT_WAVES.min(window.len())];
    let store_per_wave = |names: &[&str]| {
        cs.iter()
            .map(|s| names.iter().map(|n| s.get(n).calls).sum::<u64>())
            .sum::<u64>() as f64
            / cn
    };
    report.metric(
        "store.get_per_wave",
        store_per_wave(&["store.get", "store.get_versioned"]),
        "count",
        "",
    );
    report.metric(
        "store.scan_per_wave",
        store_per_wave(&["store.scan"]),
        "count",
        "",
    );
    report.metric(
        "store.snapshot_per_wave",
        store_per_wave(&["store.snapshot"]),
        "count",
        "",
    );
    report.metric(
        "store.put_per_wave",
        store_per_wave(&["store.put", "store.delete"]),
        "count",
        "",
    );
    let store_calls: u64 = window.iter().map(|s| s.calls_with_prefix("store.")).sum();
    let store_ns: u64 = window.iter().map(|s| s.incl_with_prefix("store.")).sum();
    report.metric(
        "store.op_us",
        if store_calls == 0 {
            0.0
        } else {
            store_ns as f64 / store_calls as f64 / 1e3
        },
        "us",
        format!("mean over {store_calls} store calls"),
    );

    let (wal, spans) = w.telemetry.as_ref().map_or((0.0, 0.0), |(a, b)| {
        let wal = b
            .counter(telemetry_names::WAL_BYTES)
            .saturating_sub(a.counter(telemetry_names::WAL_BYTES));
        (wal as f64 / cn, spans_between(a, b) as f64 / cn)
    });
    report.metric("wal.bytes_per_wave", wal, "bytes", "");
    report.metric("checkpoint.bytes", w.checkpoint_bytes as f64, "bytes", "");
    let end_waves = |ckpt: bool| -> Vec<f64> {
        window
            .iter()
            .filter(|s| {
                s.names.contains_key("engine.end_wave")
                    && s.wave.is_multiple_of(spec.checkpoint_interval) == ckpt
            })
            .map(|s| s.get("engine.end_wave").incl_ns as f64 / 1e3)
            .collect()
    };
    let ckpt_us = median(&end_waves(true)) - median(&end_waves(false));
    report.metric(
        "checkpoint.us",
        ckpt_us,
        "us",
        "application end_wave p50, checkpoint waves minus the others",
    );
    report.metric("telemetry.spans_per_wave", spans, "count", "");
    report.metric(
        "telemetry.cost_us",
        median(&rp.telemetry_on_us) - median(&rp.telemetry_off_us),
        "us",
        format!(
            "application wave p50, telemetry as configured minus off ({} vs {} waves)",
            rp.telemetry_on_us.len(),
            rp.telemetry_off_us.len()
        ),
    );
    report.metric(
        "sdf.wave_p50_us",
        median(&rp.sdf_us),
        "us",
        format!("synchronous twin, n={}", rp.sdf_us.len()),
    );
}
