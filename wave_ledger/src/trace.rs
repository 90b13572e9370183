//! Outside-in tracing: spans recorded around the calls the benchmark makes
//! into each layer's public interface.
//!
//! Nothing inside the program is instrumented. Instead the benchmark
//! wraps what it hands to the program:
//!
//! - the trigger policy ([`TimedPolicy`], installed with
//!   `Scheduler::swap_policy`) times the engine's hooks;
//! - every step is re-bound to a [`TimedStep`] around its original
//!   `StepInfo::implementation()`;
//! - a [`StoreOps`] op observer turns each completed store call into a
//!   span.
//!
//! Spans are kept in memory, one per layer-boundary call, with name,
//! start, end, parent and wave. At the end of each wave the wave's spans
//! are folded into a [`WaveSummary`] (inclusive and self time per span
//! name), and the first waves are kept whole for a Perfetto-loadable
//! export. A span's self time is its duration minus the union of its
//! children's intervals, so overlapping children (steps of one level run
//! in parallel) are not counted twice.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smartflux::{Phase, SharedEngine};
use smartflux_datastore::{OpKind, OpObserver};
use smartflux_obs::perfetto;
use smartflux_telemetry::SpanEvent;
use smartflux_wms::{Step, StepContext, StepError, StepId, TriggerPolicy, Workflow};

/// Parent index of a root span.
pub const NO_PARENT: usize = usize::MAX;

/// Spans kept whole for the Perfetto export, at most.
const EXPORT_SPAN_CAP: usize = 50_000;

/// One layer-boundary call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `engine.trigger` or `store.put`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the parent span within the same wave, or [`NO_PARENT`].
    pub parent: usize,
    /// The wave the span belongs to.
    pub wave: u64,
    /// Small per-process id of the recording thread.
    pub thread: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of one wave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Calls.
    pub calls: u64,
    /// Summed inclusive duration.
    pub incl_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// One finished wave, folded.
#[derive(Debug, Clone, Default)]
pub struct WaveSummary {
    /// The wave.
    pub wave: u64,
    /// Duration of the wave's root span(s).
    pub root_ns: u64,
    /// Root time under no child span.
    pub root_self_ns: u64,
    /// Totals per span name (roots included).
    pub names: BTreeMap<&'static str, NameTotals>,
}

impl WaveSummary {
    fn fold(wave: u64, spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut out = WaveSummary {
            wave,
            ..WaveSummary::default()
        };
        for (s, own) in spans.iter().zip(selfs) {
            if s.parent == NO_PARENT {
                out.root_ns += s.duration();
                out.root_self_ns += own;
            }
            let t = out.names.entry(s.name).or_default();
            t.calls += 1;
            t.incl_ns += s.duration();
            t.self_ns += own;
        }
        out
    }

    /// Totals for `name` (zero when the wave made no such call).
    #[must_use]
    pub fn get(&self, name: &str) -> NameTotals {
        self.names.get(name).cloned().unwrap_or_default()
    }

    /// Calls summed over every name starting with `prefix`.
    #[must_use]
    pub fn calls_with_prefix(&self, prefix: &str) -> u64 {
        self.names
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.calls)
            .sum()
    }

    /// Inclusive time summed over every name starting with `prefix`.
    #[must_use]
    pub fn incl_with_prefix(&self, prefix: &str) -> u64 {
        self.names
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.incl_ns)
            .sum()
    }
}

struct Lane {
    spans: Mutex<Vec<Span>>,
    root: AtomicUsize,
    wave: AtomicU64,
}

// Plain id allocators: only uniqueness matters.
static RECORDER_IDS: AtomicUsize = AtomicUsize::new(1);
static THREAD_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this thread: (recorder id, lane, span index).
    static STACK: RefCell<Vec<(usize, usize, usize)>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span recorder with one lane per independently driven
/// session (a lane holds one wave at a time).
pub struct Recorder {
    id: usize,
    epoch: Instant,
    enabled: AtomicBool,
    lanes: Vec<Lane>,
    summaries: Mutex<Vec<WaveSummary>>,
    exported: Mutex<Vec<(usize, Vec<Span>)>>,
    exported_spans: AtomicUsize,
}

impl Recorder {
    /// A recorder with `lanes` lanes, recording.
    #[must_use]
    pub fn new(lanes: usize) -> Arc<Self> {
        Arc::new(Self {
            id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            lanes: (0..lanes.max(1))
                .map(|_| Lane {
                    spans: Mutex::new(Vec::new()),
                    root: AtomicUsize::new(NO_PARENT),
                    wave: AtomicU64::new(0),
                })
                .collect(),
            summaries: Mutex::new(Vec::new()),
            exported: Mutex::new(Vec::new()),
            exported_spans: AtomicUsize::new(0),
        })
    }

    /// Turns recording on or off; while off, every call is a pass-through.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &self,
        lane: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        root: bool,
    ) -> usize {
        let l = &self.lanes[lane];
        let parent = if root {
            NO_PARENT
        } else {
            STACK.with(|s| {
                s.borrow()
                    .iter()
                    .rev()
                    .find(|(r, ln, _)| *r == self.id && *ln == lane)
                    .map_or_else(|| l.root.load(Ordering::SeqCst), |&(_, _, i)| i)
            })
        };
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent,
            wave: l.wave.load(Ordering::SeqCst),
            thread: THREAD_ID.with(|t| *t),
        };
        let mut spans = l
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread");
        spans.push(span);
        spans.len() - 1
    }

    fn open_inner(self: &Arc<Self>, lane: usize, name: &'static str, root: bool) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { live: None };
        }
        let idx = self.push(lane, name, self.now_ns(), 0, root);
        if root {
            self.lanes[lane].root.store(idx, Ordering::SeqCst);
        }
        STACK.with(|s| s.borrow_mut().push((self.id, lane, idx)));
        SpanGuard {
            live: Some((Arc::clone(self), lane, idx)),
        }
    }

    /// Opens the root span of `wave` on `lane`; spans opened on other
    /// threads while it is open become its children.
    pub fn open_root(self: &Arc<Self>, lane: usize, name: &'static str, wave: u64) -> SpanGuard {
        self.lanes[lane].wave.store(wave, Ordering::SeqCst);
        self.open_inner(lane, name, true)
    }

    /// Opens a span under the innermost open span of this thread, or under
    /// the lane's root.
    pub fn open(self: &Arc<Self>, lane: usize, name: &'static str) -> SpanGuard {
        self.open_inner(lane, name, false)
    }

    /// Records a call that already finished, `elapsed` ago up to now.
    pub fn record_finished(&self, lane: usize, name: &'static str, elapsed: Duration) {
        if !self.is_enabled() {
            return;
        }
        let end = self.now_ns();
        let start = end.saturating_sub(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        self.push(lane, name, start, end, false);
    }

    /// Folds the lane's current wave into a summary (returned and kept)
    /// and starts the next one.
    pub fn finish_wave(&self, lane: usize) -> WaveSummary {
        let l = &self.lanes[lane];
        let spans = std::mem::take(&mut *l.spans.lock().expect("span list poisoned"));
        l.root.store(NO_PARENT, Ordering::SeqCst);
        let summary = WaveSummary::fold(l.wave.load(Ordering::SeqCst), &spans);
        self.summaries
            .lock()
            .expect("summaries poisoned")
            .push(summary.clone());
        if self.exported_spans.fetch_add(spans.len(), Ordering::SeqCst) < EXPORT_SPAN_CAP {
            self.exported
                .lock()
                .expect("export list poisoned")
                .push((lane, spans));
        }
        summary
    }

    /// Drops the spans kept for export so far, so the export starts with
    /// the waves that follow (the timed window rather than set-up).
    pub fn restart_export(&self) {
        self.exported.lock().expect("export list poisoned").clear();
        self.exported_spans.store(0, Ordering::SeqCst);
    }

    /// Every wave summary so far, in finishing order, and clears them.
    pub fn take_summaries(&self) -> Vec<WaveSummary> {
        std::mem::take(&mut *self.summaries.lock().expect("summaries poisoned"))
    }

    /// The kept spans as Chrome trace-event JSON, loadable in Perfetto
    /// (`ui.perfetto.dev`) and `chrome://tracing`, one track per wave.
    /// Span ids number the kept spans from 1; a root's parent id is 0.
    #[must_use]
    pub fn perfetto_json(&self) -> String {
        let exported = self.exported.lock().expect("export list poisoned");
        let mut events = Vec::new();
        for (trace, (_, spans)) in exported.iter().enumerate() {
            let base = events.len() as u64 + 1;
            events.extend(spans.iter().enumerate().map(|(i, s)| SpanEvent {
                name: s.name,
                tag: s.wave,
                trace_id: trace as u64 + 1,
                span_id: base + i as u64,
                parent_id: if s.parent == NO_PARENT {
                    0
                } else {
                    base + s.parent as u64
                },
                start_ns: s.start_ns,
                elapsed: Duration::from_nanos(s.duration()),
            }));
        }
        perfetto::render(&events)
    }
}

/// Closes its span when dropped.
pub struct SpanGuard {
    live: Option<(Arc<Recorder>, usize, usize)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, lane, idx)) = self.live.take() {
            let end = rec.now_ns();
            if let Ok(mut spans) = rec.lanes[lane].spans.lock() {
                if let Some(s) = spans.get_mut(idx) {
                    s.end_ns = end;
                }
            }
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|e| *e == (rec.id, lane, idx)) {
                    s.remove(pos);
                }
            });
        }
    }
}

/// A step re-bound around its original implementation, timing each
/// execution as a `steps.exec` span.
pub struct TimedStep {
    inner: Arc<dyn Step>,
    rec: Arc<Recorder>,
    lane: usize,
}

impl Step for TimedStep {
    fn execute(&self, ctx: &StepContext) -> Result<(), StepError> {
        let _span = self.rec.open(self.lane, "steps.exec");
        self.inner.execute(ctx)
    }
}

/// Re-binds every step of `workflow` to a [`TimedStep`]; the annotations
/// (containers, bounds, retry policy) stay as they were.
pub fn instrument_steps(workflow: &mut Workflow, rec: &Arc<Recorder>, lane: usize) {
    let ids: Vec<StepId> = workflow.graph().step_ids().collect();
    for id in ids {
        let inner = Arc::clone(
            workflow
                .info(id)
                .implementation()
                .expect("workload factories bind every step"),
        );
        workflow.bind(
            id,
            TimedStep {
                inner,
                rec: Arc::clone(rec),
                lane,
            },
        );
    }
}

/// Turns each completed store call into a `store.<op>` span.
pub struct StoreOps {
    /// Where spans go.
    pub rec: Arc<Recorder>,
    /// The lane of the session that owns the store.
    pub lane: usize,
}

/// Span name of a store operation.
#[must_use]
pub fn store_span_name(op: OpKind) -> &'static str {
    match op {
        OpKind::Get => "store.get",
        OpKind::GetVersioned => "store.get_versioned",
        OpKind::Scan => "store.scan",
        OpKind::Snapshot => "store.snapshot",
        OpKind::Put => "store.put",
        OpKind::Delete => "store.delete",
    }
}

impl OpObserver for StoreOps {
    fn on_op(&self, op: OpKind, elapsed: Duration) {
        self.rec
            .record_finished(self.lane, store_span_name(op), elapsed);
    }
}

/// The engine behind a timing wrapper: every trigger-policy hook becomes
/// an `engine.*` span. Wave ends are named by what they did:
/// `engine.end_wave` (application), `engine.train_end_wave` (training)
/// and `engine.build_end_wave` (the training wave that builds the model).
pub struct TimedPolicy {
    /// The session's engine.
    pub inner: SharedEngine,
    /// Where spans go.
    pub rec: Arc<Recorder>,
    /// The session's lane.
    pub lane: usize,
}

impl TriggerPolicy for TimedPolicy {
    fn begin_wave(&mut self, wave: u64, workflow: &Workflow) {
        let _span = self.rec.open(self.lane, "engine.begin_wave");
        self.inner.begin_wave(wave, workflow);
    }

    fn should_trigger(&mut self, wave: u64, step: StepId, workflow: &Workflow) -> bool {
        let _span = self.rec.open(self.lane, "engine.trigger");
        self.inner.should_trigger(wave, step, workflow)
    }

    fn step_completed(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        let _span = self.rec.open(self.lane, "engine.completed");
        self.inner.step_completed(wave, step, workflow);
    }

    fn step_skipped(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        let _span = self.rec.open(self.lane, "engine.skipped");
        self.inner.step_skipped(wave, step, workflow);
    }

    fn step_deferred(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        let _span = self.rec.open(self.lane, "engine.deferred");
        self.inner.step_deferred(wave, step, workflow);
    }

    fn step_failed(&mut self, wave: u64, step: StepId, workflow: &Workflow) {
        let _span = self.rec.open(self.lane, "engine.failed");
        self.inner.step_failed(wave, step, workflow);
    }

    fn end_wave(&mut self, wave: u64, workflow: &Workflow) {
        let before = self.inner.with(smartflux::QodEngine::phase);
        let span = self.rec.open(self.lane, "engine.end_wave");
        self.inner.end_wave(wave, workflow);
        let name = match (before, self.inner.with(smartflux::QodEngine::phase)) {
            (Phase::Application, _) => "engine.end_wave",
            (Phase::Training { .. }, Phase::Application) => "engine.build_end_wave",
            (Phase::Training { .. }, Phase::Training { .. }) => "engine.train_end_wave",
        };
        if let Some((rec, lane, idx)) = &span.live {
            if let Ok(mut spans) = rec.lanes[*lane].spans.lock() {
                if let Some(s) = spans.get_mut(*idx) {
                    s.name = name;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            wave: 1,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("wave", 0, 100, NO_PARENT),
            // Two parallel children overlapping on [20, 30): their union
            // is [10, 40), 30 ns, not 40.
            span("steps.exec", 10, 30, 0),
            span("steps.exec", 20, 40, 0),
            // A child entirely inside another child adds nothing.
            span("store.put", 12, 14, 1),
            // A child that leaks past its parent is clipped to it.
            span("engine.end_wave", 90, 120, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(selfs[1], 20 - 2);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 2);
        assert_eq!(selfs[4], 30);

        let summary = WaveSummary::fold(1, &spans);
        assert_eq!(summary.root_ns, 100);
        assert_eq!(summary.root_self_ns, 60);
        assert_eq!(summary.get("steps.exec").calls, 2);
        assert_eq!(summary.get("steps.exec").incl_ns, 40);
        assert_eq!(summary.get("steps.exec").self_ns, 38);
    }

    #[test]
    fn nested_disjoint_children_and_an_empty_span() {
        let spans = [
            span("wave", 0, 50, NO_PARENT),
            span("engine.trigger", 5, 10, 0),
            span("engine.trigger", 20, 30, 0),
            span("store.snapshot", 22, 25, 2),
            span("store.get", 40, 40, 0),
        ];
        assert_eq!(self_times(&spans), vec![35, 5, 7, 3, 0]);
    }

    #[test]
    fn recorder_links_cross_thread_children_to_the_lane_root() {
        let rec = Recorder::new(1);
        {
            let _root = rec.open_root(0, "wave", 7);
            let _child = rec.open(0, "engine.trigger");
            rec.record_finished(0, "store.snapshot", Duration::from_nanos(1));
            let r = Arc::clone(&rec);
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _step = r.open(0, "steps.exec");
                });
            });
        }
        let summary = rec.finish_wave(0);
        assert_eq!(summary.wave, 7);
        assert_eq!(summary.get("steps.exec").calls, 1);
        let json = rec.perfetto_json();
        assert!(json.contains("\"name\":\"store.snapshot\""), "{json}");
        // store.snapshot (span 3) hangs under engine.trigger (span 2);
        // the other thread's step hangs under the root (span 1).
        assert!(json.contains("\"span_id\":3,\"parent_id\":2"), "{json}");
        assert!(json.contains("\"span_id\":4,\"parent_id\":1"), "{json}");
    }
}
