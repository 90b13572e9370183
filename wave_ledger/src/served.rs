//! `lrb_served`: LRB over loopback SFNP, the production ingestion path.
//!
//! A load generator, separate from the system under test, produces each
//! wave's LRB feed from the seed by running the workload's own feeder
//! step on a generator-side store, and ships the captured writes as the
//! wave's `SubmitWave` batch. On the host the feeder is re-bound to a
//! no-op source with the same annotations, so the session sees only the
//! shipped inputs. Two durable sessions, one client connection each,
//! receive the same feed (a replicated ingest).
//!
//! Setup trains both sessions over the wire. The timed window is an open
//! loop: each session's waves fall due at a fixed rate whether or not the
//! host keeps up, and latency runs from the due time to the
//! `WaveResult`. After the window an in-process reference session, fed
//! the same batches, must have made exactly the decisions both served
//! sessions report through `QueryDecisions`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smartflux_datastore::{DataStore, WriteEvent};
use smartflux_net::{
    wire::encode_request, Client, ContainerWrite, DecisionRow, EngineHost, HostConfig, NetError,
    NetServer, Request, Response, SessionSpec, WaveReport, WorkflowRegistry,
};
use smartflux_telemetry::Telemetry;
use smartflux_wms::{FnStep, Step, StepContext, StepError, StepId, Workflow};

use crate::inproc::{
    self, app_us, engine_layers, ml_layer, setup, Spec, Stop, COUNT_WAVES, SETUPS,
};
use crate::ledger::{managed_steps, peak_rss_mb, scratch_dir, EndToEnd, Family, Report};
use crate::stats::{median, tail};
use crate::trace::{instrument_steps, Recorder, StoreOps};

/// Open-loop rate per session, in waves per second: together about 22% of
/// the ~275 waves/s that two sessions sustain (one wave in flight each,
/// telemetry and WAL on) on the 2-core host the benchmark was written on,
/// so the host stays under half busy even when it runs twice as slow and
/// queueing behind checkpoint waves stays small.
pub const RATE_PER_SESSION: f64 = 30.0;

/// Served sessions, one client connection each.
pub const SESSIONS: usize = 2;

/// Waves per block in the traced run's closed-loop A/B phase.
const AB_BLOCK: usize = 25;

/// Rounds of (client traced, client untraced, direct untraced) blocks.
const AB_ROUNDS: usize = 4;

/// Durable sessions' checkpoint cadence: `HostConfig`'s default.
const HOST_CHECKPOINT_INTERVAL: u64 = 20;

/// The in-process reference: configured like the served sessions and fed
/// the same batches.
pub const REFERENCE: Spec = Spec {
    family: Family::Lrb,
    parallel: false,
    checkpoint_interval: HOST_CHECKPOINT_INTERVAL,
    retraining: None,
    fed: true,
    replay_waves: 1000,
};

/// Generates the LRB feed: the workload's own feeder step run on a
/// generator-side store, with its writes captured.
pub struct Feed {
    store: DataStore,
    step: Arc<dyn Step>,
    feeder: StepId,
    captured: Arc<Mutex<Vec<ContainerWrite>>>,
}

impl Feed {
    /// The feed of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the LRB workflow has no bound `feeder` step (a bug).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let store = DataStore::new();
        let workflow = Family::Lrb.factory(seed).build(&store);
        let feeder = workflow
            .graph()
            .step_id("feeder")
            .expect("LRB has a feeder");
        let step = Arc::clone(
            workflow
                .info(feeder)
                .implementation()
                .expect("the feeder is bound"),
        );
        let captured: Arc<Mutex<Vec<ContainerWrite>>> = Arc::default();
        let sink = Arc::clone(&captured);
        store.register_observer(Arc::new(move |e: &WriteEvent| {
            if let Some(value) = &e.new {
                sink.lock().expect("capture poisoned").push(ContainerWrite {
                    table: e.table.clone(),
                    family: e.family.clone(),
                    row: e.row.clone(),
                    qualifier: e.qualifier.clone(),
                    value: value.clone(),
                });
            }
        }));
        Self {
            store,
            step,
            feeder,
            captured,
        }
    }

    /// The writes the feeder makes on `wave`.
    ///
    /// # Panics
    ///
    /// Panics if the feeder fails, which it never does on its own store.
    #[must_use]
    pub fn batch(&self, wave: u64) -> Vec<ContainerWrite> {
        let ctx = StepContext::new(self.store.clone(), wave, self.feeder, "feeder");
        self.step.execute(&ctx).expect("the LRB feeder cannot fail");
        std::mem::take(&mut *self.captured.lock().expect("capture poisoned"))
    }
}

/// The host-side LRB workflow: the feeder re-bound to a no-op source with
/// the same annotations, so each wave's input is the shipped batch.
///
/// # Panics
///
/// Panics if the LRB workflow has no `feeder` step (a bug).
#[must_use]
pub fn host_workflow(seed: u64, store: &DataStore) -> Workflow {
    let mut workflow = Family::Lrb.factory(seed).build(store);
    let feeder = workflow
        .graph()
        .step_id("feeder")
        .expect("LRB has a feeder");
    workflow.bind(
        feeder,
        FnStep::new(|_: &StepContext| Ok::<(), StepError>(())),
    );
    workflow
}

fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(SESSIONS)
}

/// A running host behind a loopback server.
struct Plane {
    server: NetServer,
    dir: PathBuf,
}

impl Plane {
    fn start(seed: u64, tag: &str, rec: Option<Arc<Recorder>>) -> Self {
        let dir = scratch_dir(tag);
        let opened = Arc::new(AtomicUsize::new(0));
        let mut registry = WorkflowRegistry::new();
        registry.register(
            "lrb",
            Family::Lrb.engine_config(seed).with_telemetry(true),
            move |store: &DataStore| {
                let mut workflow = host_workflow(seed, store);
                if let Some(r) = &rec {
                    // `train_all` opens sessions in order: the k-th is lane k.
                    let lane = opened.fetch_add(1, Ordering::SeqCst) % SESSIONS;
                    instrument_steps(&mut workflow, r, lane);
                    store.register_op_observer(Arc::new(StoreOps {
                        rec: Arc::clone(r),
                        lane,
                    }));
                }
                workflow
            },
        );
        let host = EngineHost::new(
            registry,
            HostConfig::new()
                .with_workers(host_workers())
                .with_checkpoint_interval(HOST_CHECKPOINT_INTERVAL)
                .with_durability_root(&dir),
            Telemetry::enabled(),
        );
        let server =
            NetServer::start("127.0.0.1:0", host, SESSIONS + 1).expect("loopback server starts");
        Self { server, dir }
    }

    fn stop(self) {
        let _ = self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One submitted wave as the client saw it.
#[derive(Debug, Clone)]
struct Sent {
    wave: u64,
    /// Due (or, closed loop, send) time → reply, µs.
    us: f64,
    report: Option<WaveReport>,
    busy: bool,
}

fn submit(
    client: &mut Client,
    session: u64,
    wave: u64,
    batch: Vec<ContainerWrite>,
    due: Instant,
) -> Sent {
    let result = client.submit_wave(session, batch);
    let us = due.elapsed().as_secs_f64() * 1e6;
    match result {
        Ok(report) => Sent {
            wave,
            us,
            report: Some(report),
            busy: false,
        },
        Err(e) => Sent {
            wave,
            us,
            report: None,
            busy: matches!(e, NetError::Busy),
        },
    }
}

/// A trained session on its own connection.
struct Submitter {
    client: Client,
    session: u64,
    feed: Feed,
    next_wave: u64,
}

impl Submitter {
    fn open(plane: &Plane, seed: u64, key: usize) -> Self {
        let mut client = Client::connect(plane.server.addr()).expect("loopback connect");
        let opened = client
            .open_session(&SessionSpec {
                workload: "lrb".into(),
                durable_key: Some(format!("s{key}")),
                ..SessionSpec::default()
            })
            .expect("session opens");
        Self {
            client,
            session: opened.session,
            feed: Feed::new(seed),
            next_wave: opened.next_wave,
        }
    }

    /// Closed loop: submits the next wave now, traced on `lane` when a
    /// recorder is given.
    fn step(&mut self, rec: Option<(&Arc<Recorder>, usize)>) -> Sent {
        let wave = self.next_wave;
        self.next_wave += 1;
        let batch = self.feed.batch(wave);
        let root = rec.map(|(r, lane)| r.open_root(lane, "net.submit", wave));
        let sent = submit(&mut self.client, self.session, wave, batch, Instant::now());
        drop(root);
        if let Some((r, lane)) = rec {
            r.finish_wave(lane);
        }
        sent
    }
}

/// Opens `SESSIONS` sessions one after another, so session `k` is traced
/// on lane `k`, and trains them over the wire, concurrently.
fn train_all(plane: &Plane, seed: u64, rec: Option<&Arc<Recorder>>) -> (Vec<Submitter>, Vec<Sent>) {
    let waves = Family::Lrb.training_waves() as u64;
    let opened: Vec<Submitter> = (0..SESSIONS)
        .map(|k| Submitter::open(plane, seed, k))
        .collect();
    let results: Vec<(Submitter, Vec<Sent>)> = std::thread::scope(|s| {
        let handles: Vec<_> = opened
            .into_iter()
            .enumerate()
            .map(|(k, mut d)| {
                s.spawn(move || {
                    let sent: Vec<Sent> = (0..waves).map(|_| d.step(rec.map(|r| (r, k)))).collect();
                    (d, sent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("training client panicked"))
            .collect()
    });
    let mut submitters = Vec::new();
    let mut sent = Vec::new();
    for (d, s) in results {
        submitters.push(d);
        sent.extend(s);
    }
    (submitters, sent)
}

/// What one session's open-loop window measured.
#[derive(Debug, Default)]
struct OpenLoop {
    sent: Vec<Sent>,
    late_us: Vec<f64>,
    backlog_max: u64,
    request_bytes: Vec<usize>,
    last_reply: Option<Instant>,
    /// Waves still unsent when the overload deadline passed.
    unsent: u64,
}

impl OpenLoop {
    /// Appends a later part of the same session's window.
    fn extend(&mut self, later: OpenLoop) {
        self.sent.extend(later.sent);
        self.late_us.extend(later.late_us);
        self.backlog_max = self.backlog_max.max(later.backlog_max);
        self.request_bytes.extend(later.request_bytes);
        self.unsent += later.unsent;
    }
}

fn open_loop(
    d: &mut Submitter,
    start: Instant,
    waves: usize,
    rec: Option<(&Arc<Recorder>, usize)>,
) -> OpenLoop {
    let rate = RATE_PER_SESSION;
    let mut out = OpenLoop::default();
    // An overloaded host must not stretch the run without bound: waves not
    // sent by twice the window (plus a second) count as failed.
    let deadline = start + Duration::from_secs_f64(2.0 * waves as f64 / rate + 1.0);
    for k in 0..waves {
        if Instant::now() > deadline {
            out.unsent = (waves - k) as u64;
            break;
        }
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let wave = d.next_wave;
        d.next_wave += 1;
        let batch = d.feed.batch(wave);
        if rec.is_some() && k < COUNT_WAVES {
            out.request_bytes.push(
                encode_request(&Request::SubmitWave {
                    session: d.session,
                    writes: batch.clone(),
                    run_wave: true,
                })
                .len(),
            );
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent_at = Instant::now();
        out.late_us
            .push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e6);
        let due_by_now = (sent_at.saturating_duration_since(start).as_secs_f64() * rate) as u64 + 1;
        out.backlog_max = out.backlog_max.max(due_by_now.saturating_sub(k as u64 + 1));
        let root = rec.map(|(r, lane)| r.open_root(lane, "net.submit", wave));
        out.sent
            .push(submit(&mut d.client, d.session, wave, batch, due));
        drop(root);
        if let Some((r, lane)) = rec {
            r.finish_wave(lane);
        }
        out.last_reply = Some(Instant::now());
    }
    out
}

/// Runs one part of the open-loop window, `waves` waves on every session,
/// and returns what each session measured and the part's length in
/// seconds (first due time to last reply).
fn window_part(
    submitters: &mut [Submitter],
    waves: usize,
    rec: Option<&Arc<Recorder>>,
) -> (Vec<OpenLoop>, f64) {
    let start = Instant::now() + Duration::from_millis(5);
    let loops: Vec<OpenLoop> = std::thread::scope(|s| {
        let handles: Vec<_> = submitters
            .iter_mut()
            .enumerate()
            .map(|(k, d)| {
                // Sessions are independent users: their schedules are
                // staggered by half a period plus a share of the checkpoint
                // cadence, so neither their waves nor their checkpoints
                // fall due together.
                let lag = k as f64 * (HOST_CHECKPOINT_INTERVAL as f64 / SESSIONS as f64 + 0.5);
                let start = start + Duration::from_secs_f64(lag / RATE_PER_SESSION);
                s.spawn(move || open_loop(d, start, waves, rec.map(|r| (r, k))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator panicked"))
            .collect()
    });
    let secs = loops
        .iter()
        .filter_map(|l| l.last_reply)
        .max()
        .map_or(0.0, |end| {
            end.saturating_duration_since(start).as_secs_f64()
        });
    (loops, secs)
}

/// The traced run's closed-loop A/B phase on one session: blocks of
/// client submits with tracing on, client submits with tracing off, and
/// direct `EngineHost::submit` calls (no wire), interleaved.
#[derive(Debug, Default)]
struct WirePhase {
    client_traced_us: Vec<f64>,
    client_us: Vec<f64>,
    direct_us: Vec<f64>,
}

fn wire_phase(d: &mut Submitter, host: &EngineHost, rec: &Arc<Recorder>) -> (WirePhase, u64) {
    let mut out = WirePhase::default();
    let mut failed = 0;
    for _ in 0..AB_ROUNDS {
        rec.set_enabled(true);
        for _ in 0..AB_BLOCK {
            let s = d.step(Some((rec, 0)));
            failed += u64::from(s.report.is_none());
            out.client_traced_us.push(s.us);
        }
        rec.set_enabled(false);
        for _ in 0..AB_BLOCK {
            let s = d.step(None);
            failed += u64::from(s.report.is_none());
            out.client_us.push(s.us);
        }
        for _ in 0..AB_BLOCK {
            let wave = d.next_wave;
            d.next_wave += 1;
            let batch = d.feed.batch(wave);
            let t = Instant::now();
            let r = host.submit(d.session, batch, true);
            out.direct_us.push(t.elapsed().as_secs_f64() * 1e6);
            failed += u64::from(!matches!(r, Response::WaveResult(_)));
        }
    }
    rec.set_enabled(true);
    (out, failed)
}

fn rows_match(rows: &[DecisionRow], reference: &[smartflux::WaveDiagnostics]) -> bool {
    rows.len() <= reference.len()
        && rows.iter().zip(reference).all(|(r, d)| {
            r.wave == d.wave
                && r.training == d.training
                && r.impacts.len() == d.impacts.len()
                && r.impacts
                    .iter()
                    .zip(&d.impacts)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && r.decisions == d.decisions
        })
}

/// Runs `lrb_served` at [`RATE_PER_SESSION`] waves per second per session.
///
/// # Panics
///
/// Panics if the loopback plane cannot start or a session cannot open.
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let rate = RATE_PER_SESSION;
    let mut report = Report::default();
    let rec = traced.then(|| Recorder::new(SESSIONS + 1));

    // Set-up. Only this first plane serves the window.
    let t = Instant::now();
    let plane = Plane::start(seed, "lrb_served-0", rec.clone());
    let (mut submitters, mut training) = train_all(&plane, seed, rec.as_ref());
    let mut setup_secs = vec![t.elapsed().as_secs_f64()];
    if let Some(r) = &rec {
        let _ = r.take_summaries();
        r.restart_export();
    }

    // The open-loop window. As in process, it runs in `SETUPS` parts with
    // the further setups (each on a plane of its own) between them, so
    // set-up and window waves both sample the host across the whole run.
    // The traced run measures it in one part and sets up once.
    let parts = if traced { 1 } else { SETUPS };
    let per_part =
        ((seconds * rate / parts as f64).ceil() as usize).max(COUNT_WAVES.div_ceil(parts));
    let waves = per_part * parts;
    let mut loops: Vec<OpenLoop> = (0..SESSIONS).map(|_| OpenLoop::default()).collect();
    let mut window_secs = 0.0;
    let mut peak_rss = 0.0;
    for i in 0..parts {
        if i > 0 {
            let t = Instant::now();
            let extra = Plane::start(seed, &format!("lrb_served-{i}"), None);
            let (extra_submitters, sent) = train_all(&extra, seed, None);
            setup_secs.push(t.elapsed().as_secs_f64());
            training.extend(sent);
            drop(extra_submitters);
            extra.stop();
        }
        let (part, secs) = window_part(&mut submitters, per_part, rec.as_ref());
        window_secs += secs;
        for (l, p) in loops.iter_mut().zip(part) {
            l.extend(p);
        }
        if i == 0 {
            // The serving process's peak: one plane and its clients,
            // before further setups and the in-process reference add theirs.
            peak_rss = peak_rss_mb();
        }
    }
    let window_summaries = rec.as_ref().map(|r| r.take_summaries()).unwrap_or_default();
    let sent: Vec<&Sent> = loops.iter().flat_map(|l| l.sent.iter()).collect();
    let unsent: u64 = loops.iter().map(|l| l.unsent).sum();
    report.attempted = sent.len() as u64 + unsent;
    report.failed = sent.iter().filter(|s| s.report.is_none()).count() as u64 + unsent;
    let busy = sent.iter().filter(|s| s.busy).count();

    let host = plane.server.host().clone();
    let wire = rec.as_ref().map(|r| {
        let (phase, failed) = wire_phase(&mut submitters[0], &host, r);
        report.failed += failed;
        let _ = r.take_summaries();
        phase
    });

    // Decisions as the served sessions report them.
    let mut served_rows = Vec::new();
    for d in &mut submitters {
        let _ = d.client.drain(d.session);
        served_rows.push(d.client.query_decisions(d.session, 0).unwrap_or_default());
        let _ = d.client.close_session(d.session);
    }
    let last_wave = submitters
        .iter()
        .map(|d| d.next_wave - 1)
        .max()
        .unwrap_or(0);
    drop(submitters);
    plane.stop();

    // The in-process reference, fed the same batches.
    let (mut reference, ref_setup) = setup(
        &REFERENCE,
        seed,
        "lrb_served-ref",
        rec.clone().map(|r| (r, SESSIONS)),
    );
    let ref_setup_summaries = rec.as_ref().map(|r| r.take_summaries()).unwrap_or_default();
    let kb = reference.session.knowledge_base();
    let remaining =
        usize::try_from(last_wave.saturating_sub(ref_setup.waves.len() as u64)).unwrap_or(0);
    let twin_waves = REFERENCE.replay_waves.min(waves).min(remaining);
    let first = inproc::pass(
        &REFERENCE,
        &mut reference,
        seed,
        Stop::Waves(twin_waves),
        twin_waves,
        traced,
    );
    let _ = rec.as_ref().map(|r| r.take_summaries());
    let rest = inproc::pass(
        &REFERENCE,
        &mut reference,
        seed,
        Stop::Waves(remaining - twin_waves),
        0,
        false,
    );
    let ref_summaries = rec.as_ref().map(|r| r.take_summaries()).unwrap_or_default();
    let diags = reference.session.diagnostics();
    for (k, rows) in served_rows.iter().enumerate() {
        let name = if k == 0 {
            "session_0_matches_reference"
        } else {
            "session_1_matches_reference"
        };
        report.check(
            name,
            !rows.is_empty() && rows_match(rows, &diags),
            format!(
                "{} decision rows vs {} in-process rows",
                rows.len(),
                diags.len()
            ),
        );
    }
    report.check(
        "confidence_measured",
        first.twin_app_waves > 0,
        format!(
            "{} reference application waves compared with the synchronous twin",
            first.twin_app_waves
        ),
    );
    report.notes.push(format!(
        "open loop: due at {rate} waves/s per session × {SESSIONS} sessions, {waves} waves each \
         in {parts} parts; {} host workers",
        host_workers()
    ));

    let managed_names: Vec<String> = {
        let wf = host_workflow(seed, &DataStore::new());
        managed_steps(&wf)
            .into_iter()
            .map(|id| wf.graph().step_name(id).to_owned())
            .collect()
    };
    let late: Vec<f64> = loops
        .iter()
        .flat_map(|l| l.late_us.iter().copied())
        .collect();
    let backlog = loops.iter().map(|l| l.backlog_max).max().unwrap_or(0);

    if let (Some(r), Some(wire)) = (&rec, &wire) {
        inproc::write_trace(&mut report, r, "lrb_served", seed);
        let ml = ml_layer(&REFERENCE, seed, &kb, &reference);
        engine_layers(
            &mut report,
            &REFERENCE,
            &ref_setup_summaries,
            &ref_summaries,
            &rest,
            &first,
            &ml,
        );
        let bytes = &loops[0].request_bytes;
        report.metric(
            "net.request_bytes",
            bytes.iter().sum::<usize>() as f64 / bytes.len().max(1) as f64,
            "bytes",
            format!("encoded SubmitWave, mean over {} waves", bytes.len()),
        );
        report.metric(
            "net.wire_us",
            median(&wire.client_us) - median(&wire.direct_us),
            "us",
            format!(
                "Client::submit_wave p50 {:.1} us minus EngineHost::submit p50 {:.1} us",
                median(&wire.client_us),
                median(&wire.direct_us)
            ),
        );
        report.metric(
            "net.busy",
            busy as f64,
            "count",
            "Busy replies in the window",
        );
        let t = tail(&late, 99.0);
        report.metric(
            "loadgen.late_p99_us",
            t.value,
            "us",
            format!("p{}, n={}", t.percentile, t.n),
        );
        report.metric(
            "loadgen.backlog_max",
            backlog as f64,
            "count",
            "waves due but not yet sent, max",
        );
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
            "served wave time under no step or store span: wire, queue, engine and scheduler",
        );
        let (a, b) = (median(&wire.client_traced_us), median(&wire.client_us));
        report.metric(
            "trace.overhead",
            if b > 0.0 { a / b - 1.0 } else { 0.0 },
            "ratio",
            format!("closed-loop client p50 traced {a:.1} us vs untraced {b:.1} us"),
        );
        report.notes.push(
            "engine, ml, wms, wal, checkpoint and telemetry layers are measured on the in-process \
             reference session, which is fed the same batches and checked to decide identically"
                .to_owned(),
        );
    } else {
        let app: Vec<f64> = sent
            .iter()
            .filter(|s| s.report.as_ref().is_some_and(|r| !r.training))
            .map(|s| s.us)
            .collect();
        let train: Vec<f64> = training
            .iter()
            .filter(|s| s.report.is_some())
            .map(|s| s.us)
            .collect();
        let last_training = Family::Lrb.training_waves() as u64;
        let builds: Vec<f64> = training
            .iter()
            .filter(|s| s.wave == last_training)
            .map(|s| s.us / 1e6)
            .collect();
        let (mut exec, mut sched) = (0u64, 0u64);
        for r in sent
            .iter()
            .filter_map(|s| s.report.as_ref())
            .filter(|r| !r.training)
        {
            let managed = |names: &[String]| {
                names.iter().filter(|n| managed_names.contains(n)).count() as u64
            };
            exec += managed(&r.executed);
            sched += managed(&r.executed) + managed(&r.skipped);
        }
        report.end_to_end(&EndToEnd {
            completed: sent.iter().filter(|s| s.report.is_some()).count(),
            window_secs,
            load: "open loop",
            app_us: &app,
            train_us: &train,
            builds_s: &builds,
            setups_s: &setup_secs,
            peak_rss_mb: peak_rss,
            managed: (exec, sched),
            within_bound: (first.twin_compliant, first.twin_app_waves),
        });
        report.notes.push(
            "wave latency runs from each wave's due time to its WaveResult; training waves are \
             client roundtrips; confidence is read on the in-process reference; peak memory is \
             read right after the first part of the window"
                .to_owned(),
        );
        report.notes.push(format!(
            "loadgen: late p99 {:.1} us, max backlog {backlog} waves, {busy} Busy replies; reference p50 {:.1} us",
            tail(&late, 99.0).value,
            median(&app_us(&first.waves))
        ));
    }
    report
}
