//! The wave-based scheduler.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use parking_lot::Mutex;
use smartflux_datastore::DataStore;
use smartflux_telemetry::{names, Telemetry};

use crate::error::{StepFailure, WmsError};
use crate::events::{EventBus, EventSubscription, SchedulerEvent};
use crate::graph::StepId;
use crate::policy::TriggerPolicy;
use crate::retry::RetryPolicy;
use crate::stats::ExecutionStats;
use crate::step::{Step, StepContext, StepError};
use crate::workflow::Workflow;

/// A wave (iteration) number; waves are numbered from 1.
pub type WaveId = u64;

/// What happened during one wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveOutcome {
    /// The wave that ran.
    pub wave: WaveId,
    /// Steps that executed, in execution (topological) order.
    pub executed: Vec<StepId>,
    /// Steps the policy skipped.
    pub skipped: Vec<StepId>,
    /// Steps deferred because a predecessor has never executed.
    pub deferred: Vec<StepId>,
}

impl WaveOutcome {
    /// Returns `true` if `step` executed this wave.
    #[must_use]
    pub fn did_execute(&self, step: StepId) -> bool {
        self.executed.contains(&step)
    }
}

/// Watchdog worker threads whose attempt timed out and was abandoned
/// mid-flight.
///
/// Before this registry existed, a timed-out attempt's worker thread was
/// simply detached — on a wave abort nothing ever joined it, so every
/// hang-faulted wave leaked one OS thread for the life of the process.
/// Now every abandoned handle is kept here: finished workers are reaped
/// (joined) at each wave boundary — completed *and* aborted — and the
/// scheduler's `Drop` joins whatever is still running, so no watchdog
/// thread outlives its scheduler.
#[derive(Clone, Default)]
struct AbandonedWatchdogs {
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl AbandonedWatchdogs {
    /// Records a worker whose attempt timed out and keeps running.
    fn register(&self, handle: JoinHandle<()>) {
        self.handles.lock().push(handle);
    }

    /// Joins every abandoned worker that has already finished; running
    /// ones are left for a later reap or [`AbandonedWatchdogs::join_all`].
    fn reap_finished(&self) {
        let finished = {
            let mut handles = self.handles.lock();
            let mut finished = Vec::new();
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    finished.push(handles.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            finished
        };
        // Joined outside the lock (a join may block, briefly even for a
        // finished thread, and must never happen under a held guard).
        for handle in finished {
            let _ = handle.join();
        }
    }

    /// Blocks until every abandoned worker has finished, joining them all.
    fn join_all(&self) {
        let drained = std::mem::take(&mut *self.handles.lock());
        for handle in drained {
            let _ = handle.join();
        }
    }

    /// Abandoned workers not yet reaped (finished or not).
    fn len(&self) -> usize {
        self.handles.lock().len()
    }
}

/// The result of driving one step through its retry budget.
struct StepExecution {
    /// Final result: busy time on success, the last attempt's error on
    /// exhaustion.
    outcome: Result<Duration, StepError>,
    /// Total attempts performed (1 = succeeded first try or no retries).
    attempts: u32,
}

/// Executes `implementation` under `retry`: up to `max_attempts` tries,
/// separated by the policy's deterministic backoff delays, each optionally
/// bounded by a watchdog timeout. A fresh [`StepContext`] is built per
/// attempt. Runs on the calling thread, so a level-parallel batch invokes
/// it from each worker and sibling backoffs overlap instead of serialising.
///
/// Each attempt opens a `wms.step_attempt` span (tag = attempt number), so
/// retries show up as sibling children of the enclosing step span in trace
/// trees.
#[allow(clippy::too_many_arguments)] // flat field borrows: runs on scoped workers, which cannot share the scheduler
fn run_step_with_retry(
    telemetry: &Telemetry,
    abandoned: &AbandonedWatchdogs,
    implementation: &Arc<dyn Step>,
    retry: RetryPolicy,
    store: &DataStore,
    wave: WaveId,
    step: StepId,
    name: &str,
) -> StepExecution {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let delay = retry.delay_before(attempts);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let ctx = StepContext::new(store.clone(), wave, step, name);
        let result = {
            let _attempt_span = telemetry.span(names::STEP_ATTEMPT_LATENCY, u64::from(attempts));
            match retry.timeout() {
                None => attempt_inline(implementation, &ctx),
                Some(limit) => attempt_with_watchdog(
                    telemetry,
                    abandoned,
                    Arc::clone(implementation),
                    ctx,
                    limit,
                ),
            }
        };
        match result {
            Ok(elapsed) => {
                return StepExecution {
                    outcome: Ok(elapsed),
                    attempts,
                }
            }
            Err(source) => {
                if attempts >= retry.max_attempts() {
                    return StepExecution {
                        outcome: Err(source),
                        attempts,
                    };
                }
            }
        }
    }
}

/// One attempt on the calling thread. A panicking step becomes a
/// [`StepError`] so it fails its wave through the normal retry/abort
/// lifecycle instead of tearing down the scheduler.
fn attempt_inline(
    implementation: &Arc<dyn Step>,
    ctx: &StepContext,
) -> Result<Duration, StepError> {
    // tidy:allow(time): measures step latency for ExecutionStats;
    // reported, never replayed
    let start = Instant::now();
    match std::panic::catch_unwind(AssertUnwindSafe(|| implementation.execute(ctx))) {
        Ok(Ok(())) => Ok(start.elapsed()),
        Ok(Err(source)) => Err(source),
        Err(_) => Err(StepError::msg("step panicked")),
    }
}

/// One attempt bounded by a wall-clock watchdog: the step runs on a
/// spawned thread while this thread waits at most `limit` for its result.
/// On timeout the attempt fails and the runaway execution is abandoned to
/// the scheduler's [`AbandonedWatchdogs`] registry (it keeps its own store
/// clone) — which is why steps under a timeout should be idempotent per
/// wave. Workers that finished (result or panic) are joined right here.
fn attempt_with_watchdog(
    telemetry: &Telemetry,
    abandoned: &AbandonedWatchdogs,
    implementation: Arc<dyn Step>,
    ctx: StepContext,
    limit: Duration,
) -> Result<Duration, StepError> {
    let (tx, rx) = unbounded();
    // Hand the current trace context to the worker thread so store-op
    // trace events emitted by the step still parent under its attempt span.
    let trace_ctx = telemetry.trace_context();
    let worker_telemetry = telemetry.clone();
    let handle = std::thread::spawn(move || {
        let _trace_guard = worker_telemetry.propagate(trace_ctx);
        let _ = tx.send(attempt_inline(&implementation, &ctx));
    });
    match rx.recv_timeout(limit) {
        Ok(result) => {
            // The worker has sent its result and is exiting; join it so a
            // successful timed attempt leaves no thread behind.
            let _ = handle.join();
            result
        }
        Err(RecvTimeoutError::Timeout) => {
            abandoned.register(handle);
            Err(StepError::msg(format!("step timed out after {limit:?}")))
        }
        Err(RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err(StepError::msg("step panicked"))
        }
    }
}

/// When a wave loop runs its batch of triggered steps.
#[derive(Debug, Clone, Copy)]
enum Flush {
    /// After every step: triggered steps run one at a time.
    EveryStep,
    /// Where the level changes: a level's triggered steps run together.
    EveryLevel,
}

/// Drives a [`Workflow`] through waves of continuous processing.
///
/// Each wave walks the DAG in topological order. For every step the
/// scheduler applies the paper's triggering semantics:
///
/// 1. if any predecessor has never completed an execution, the step is
///    *deferred* (not counted as a skip — it is simply not eligible yet);
/// 2. if the step is marked always-run, it executes;
/// 3. otherwise the [`TriggerPolicy`] decides.
///
/// Every decision is published as a [`SchedulerEvent`] and recorded in
/// [`ExecutionStats`].
pub struct Scheduler {
    workflow: Workflow,
    store: DataStore,
    policy: Box<dyn TriggerPolicy>,
    stats: ExecutionStats,
    events: EventBus,
    telemetry: Telemetry,
    ever_executed: Vec<bool>,
    next_wave: WaveId,
    abandoned: AbandonedWatchdogs,
}

impl Scheduler {
    /// Creates a scheduler for `workflow` over `store` using `policy`.
    #[must_use]
    pub fn new(workflow: Workflow, store: DataStore, policy: Box<dyn TriggerPolicy>) -> Self {
        let n = workflow.graph().len();
        Self {
            workflow,
            store,
            policy,
            stats: ExecutionStats::new(n),
            events: EventBus::default(),
            telemetry: Telemetry::disabled(),
            ever_executed: vec![false; n],
            next_wave: 1,
            abandoned: AbandonedWatchdogs::default(),
        }
    }

    /// Attaches a telemetry handle. Wave and step latencies, and the
    /// executed/skipped/deferred counters, are recorded through it; the
    /// default handle is disabled and costs near-zero per wave.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The scheduler's telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The workflow being scheduled.
    #[must_use]
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The data store steps communicate through.
    #[must_use]
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Accumulated execution statistics.
    #[must_use]
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }

    /// Replaces the trigger policy (e.g. switching from a synchronous
    /// training phase to the adaptive application phase), returning the old
    /// one.
    pub fn swap_policy(&mut self, policy: Box<dyn TriggerPolicy>) -> Box<dyn TriggerPolicy> {
        std::mem::replace(&mut self.policy, policy)
    }

    /// Subscribes to scheduler events.
    pub fn subscribe(&mut self) -> EventSubscription {
        self.events.subscribe()
    }

    /// Blocks until every watchdog worker abandoned by a timed-out attempt
    /// has finished, joining them all.
    ///
    /// Finished workers are reaped automatically at each wave boundary and
    /// everything is joined on drop; call this between waves when a test
    /// or harness needs the store quiescent — e.g. before comparing store
    /// contents, so a runaway attempt's late writes land at a defined
    /// point instead of racing the next wave.
    pub fn join_abandoned(&self) {
        self.abandoned.join_all();
    }

    /// Number of abandoned watchdog workers not yet reaped (finished or
    /// still running).
    #[must_use]
    pub fn abandoned_watchdogs(&self) -> usize {
        self.abandoned.len()
    }

    /// The number of the next wave to run.
    #[must_use]
    pub fn next_wave(&self) -> WaveId {
        self.next_wave
    }

    /// Repositions the scheduler to continue at `next_wave`, marking every
    /// step as having executed before.
    ///
    /// Intended for crash recovery: a SmartFlux run always starts with a
    /// synchronous training phase, so by the time a checkpoint exists every
    /// step has completed at least once and no step needs the
    /// "never-executed predecessor" deferral again. Wave numbering resumes
    /// exactly where the checkpointed run left off, which keeps wave-indexed
    /// decisions (retraining intervals, checkpoint cadence) aligned with the
    /// uninterrupted run.
    pub fn resume(&mut self, next_wave: WaveId) {
        self.next_wave = next_wave.max(1);
        for executed in &mut self.ever_executed {
            *executed = true;
        }
    }

    /// Runs a single wave, executing triggered steps one at a time in
    /// topological order.
    ///
    /// # Errors
    ///
    /// Returns [`WmsError::UnboundStep`] if any step lacks an implementation
    /// and [`WmsError::StepFailed`] if a step errors after exhausting its
    /// [`RetryPolicy`]. The wave aborts at the failing step, but the abort
    /// is *clean*: the policy still receives `step_failed` and `end_wave`,
    /// stats record the aborted wave, a terminal [`WaveAborted`] event is
    /// published, and the next `run_wave` starts a fresh wave.
    ///
    /// [`WaveAborted`]: SchedulerEvent::WaveAborted
    pub fn run_wave(&mut self) -> Result<WaveOutcome, WmsError> {
        self.run_wave_flushing(Flush::EveryStep)
    }

    /// Runs `count` consecutive waves, returning each outcome.
    ///
    /// # Errors
    ///
    /// Stops at the first failing wave and returns its error.
    pub fn run_waves(&mut self, count: u64) -> Result<Vec<WaveOutcome>, WmsError> {
        let mut outcomes = Vec::with_capacity(count as usize);
        for _ in 0..count {
            outcomes.push(self.run_wave()?);
        }
        Ok(outcomes)
    }

    /// Runs a single wave executing independent steps in parallel.
    ///
    /// Steps are processed level by level (a level being the set of steps
    /// whose predecessors all belong to earlier levels — the natural
    /// parallelism of the paper's Hadoop deployment). Trigger decisions are
    /// still made sequentially in topological order, so adaptive policies
    /// observe exactly the same state they would under [`run_wave`]; only
    /// the `execute` calls of one level run concurrently, on scoped
    /// threads (a level with a single triggered step runs it on the
    /// calling thread).
    ///
    /// [`run_wave`]: Self::run_wave
    ///
    /// # Errors
    ///
    /// As [`run_wave`](Self::run_wave); if several steps of a level fail,
    /// *every* failure is recorded (stats, `StepFailed` events, policy
    /// callbacks) and surfaced — one failure yields the familiar
    /// [`WmsError::StepFailed`], several yield [`WmsError::WaveAborted`]
    /// carrying them all. The wave aborts before later levels run, with
    /// the same clean-abort guarantees as `run_wave`.
    pub fn run_wave_parallel(&mut self) -> Result<WaveOutcome, WmsError> {
        self.run_wave_flushing(Flush::EveryLevel)
    }

    /// The one wave loop behind [`run_wave`](Self::run_wave) and
    /// [`run_wave_parallel`](Self::run_wave_parallel).
    ///
    /// Walks `topo_order()` deciding each step — deferred, skipped, or
    /// triggered into a `pending` batch — and runs the batch whenever
    /// `flush` says so. Flushing after every step gives the sequential
    /// order of callbacks and events; flushing where the level changes
    /// gives the level-parallel order. Topological order lists levels
    /// contiguously, so a level's steps are all decided before any of
    /// them runs.
    fn run_wave_flushing(&mut self, flush: Flush) -> Result<WaveOutcome, WmsError> {
        if let Some(id) = self.workflow.first_unbound() {
            return Err(WmsError::UnboundStep(
                self.workflow.graph().step_name(id).to_owned(),
            ));
        }
        let wave = self.next_wave;
        self.next_wave += 1;

        let _wave_span = self.telemetry.span(names::WAVE_LATENCY, wave);
        self.events.publish(&SchedulerEvent::WaveStarted { wave });
        self.policy.begin_wave(wave, &self.workflow);

        let mut outcome = WaveOutcome {
            wave,
            executed: Vec::new(),
            skipped: Vec::new(),
            deferred: Vec::new(),
        };
        let mut pending: Vec<StepId> = Vec::new();

        let steps = self.workflow.graph().len();
        for i in 0..steps {
            let graph = self.workflow.graph();
            let step = graph.topo_order()[i];
            let preds_ready = graph
                .predecessors(step)
                .iter()
                .all(|p| self.ever_executed[p.index()]);
            if !preds_ready {
                self.stats.record_deferral(step);
                self.note_deferred();
                outcome.deferred.push(step);
                self.policy.step_deferred(wave, step, &self.workflow);
                self.events
                    .publish(&SchedulerEvent::StepDeferred { wave, step });
            } else if self.workflow.info(step).always_run()
                || self.policy.should_trigger(wave, step, &self.workflow)
            {
                self.events
                    .publish(&SchedulerEvent::StepTriggered { wave, step });
                pending.push(step);
            } else {
                self.stats.record_skip(step);
                self.note_skipped();
                outcome.skipped.push(step);
                self.policy.step_skipped(wave, step, &self.workflow);
                self.events
                    .publish(&SchedulerEvent::StepSkipped { wave, step });
            }

            let graph = self.workflow.graph();
            let boundary = match flush {
                Flush::EveryStep => true,
                Flush::EveryLevel => graph
                    .topo_order()
                    .get(i + 1)
                    .is_none_or(|&next| graph.level(next) != graph.level(step)),
            };
            if boundary && !pending.is_empty() {
                self.run_pending(wave, &mut outcome, &mut pending)?;
            }
        }

        self.policy.end_wave(wave, &self.workflow);
        self.stats.record_wave();
        self.abandoned.reap_finished();
        self.events.publish(&SchedulerEvent::WaveCompleted {
            wave,
            executed: outcome.executed.len(),
            skipped: outcome.skipped.len(),
            deferred: outcome.deferred.len(),
        });
        Ok(outcome)
    }

    /// Runs the `pending` batch (emptying it), then publishes each step's
    /// retries and completion in topological order. Every failure of the
    /// batch is kept — siblings are never dropped — and aborts the wave.
    fn run_pending(
        &mut self,
        wave: WaveId,
        outcome: &mut WaveOutcome,
        pending: &mut Vec<StepId>,
    ) -> Result<(), WmsError> {
        let results = self.execute_batch(wave, pending)?;
        let mut failures: Vec<StepFailure> = Vec::new();
        for (step, exec) in pending.drain(..).zip(results) {
            self.publish_retries(wave, step, exec.attempts);
            match exec.outcome {
                Ok(elapsed) => {
                    self.stats.record_execution(step, elapsed);
                    self.note_executed(elapsed);
                    self.ever_executed[step.index()] = true;
                    outcome.executed.push(step);
                    self.policy.step_completed(wave, step, &self.workflow);
                    self.events
                        .publish(&SchedulerEvent::StepCompleted { wave, step });
                }
                Err(source) => failures.push(StepFailure {
                    step,
                    step_name: self.workflow.graph().step_name(step).to_owned(),
                    attempts: exec.attempts,
                    source,
                }),
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(self.abort_wave(wave, outcome, failures))
        }
    }

    /// Executes `steps` through their retry budgets, returning one result
    /// per step in the same order. A single step runs inline on the
    /// calling thread; several run concurrently on scoped threads, each
    /// re-entering the caller's trace context so its step span parents
    /// under the wave span.
    fn execute_batch(
        &self,
        wave: WaveId,
        steps: &[StepId],
    ) -> Result<Vec<StepExecution>, WmsError> {
        // Field borrows, not `&self`: the policy is `Send` but not `Sync`,
        // so the scheduler as a whole cannot be shared with workers.
        let Self {
            workflow,
            store,
            telemetry,
            abandoned,
            ..
        } = self;
        let mut implementations = Vec::with_capacity(steps.len());
        for &step in steps {
            implementations.push(workflow.info(step).implementation().ok_or_else(|| {
                WmsError::UnboundStep(workflow.graph().step_name(step).to_owned())
            })?);
        }
        let run = |step: StepId, implementation: &Arc<dyn Step>| {
            // Scoped so the step span closes before policy callbacks run;
            // the span's tag is the step index.
            let _step_span = telemetry.span(names::STEP_TOTAL_LATENCY, step.index() as u64);
            run_step_with_retry(
                telemetry,
                abandoned,
                implementation,
                workflow.info(step).retry(),
                store,
                wave,
                step,
                workflow.graph().step_name(step),
            )
        };
        if let ([step], [implementation]) = (steps, implementations.as_slice()) {
            return Ok(vec![run(*step, implementation)]);
        }
        let trace_ctx = telemetry.trace_context();
        Ok(std::thread::scope(|scope| {
            let handles: Vec<_> = steps
                .iter()
                .zip(&implementations)
                .map(|(&step, implementation)| {
                    let run = &run;
                    scope.spawn(move || {
                        let _trace_guard = telemetry.propagate(trace_ctx);
                        run(step, implementation)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // `run_step_with_retry` catches step panics itself;
                    // this guards the worker harness, not the step.
                    h.join().unwrap_or_else(|_| StepExecution {
                        outcome: Err(StepError::msg("step panicked")),
                        attempts: 1,
                    })
                })
                .collect()
        }))
    }

    /// Completes a wave that cannot finish: records every failure, keeps
    /// the policy lifecycle balanced (`step_failed` then `end_wave`),
    /// counts the aborted wave, and publishes the terminal
    /// [`WaveAborted`](SchedulerEvent::WaveAborted) event. The scheduler
    /// is left consistent — the next `run_wave` starts a clean wave.
    fn abort_wave(
        &mut self,
        wave: WaveId,
        outcome: &WaveOutcome,
        failures: Vec<StepFailure>,
    ) -> WmsError {
        for failure in &failures {
            self.stats.record_failure(failure.step);
            self.note_failed();
            self.policy.step_failed(wave, failure.step, &self.workflow);
            self.events.publish(&SchedulerEvent::StepFailed {
                wave,
                step: failure.step,
                attempts: failure.attempts,
            });
        }
        self.policy.end_wave(wave, &self.workflow);
        self.stats.record_aborted_wave();
        self.abandoned.reap_finished();
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::WAVES_ABORTED).incr();
        }
        self.events.publish(&SchedulerEvent::WaveAborted {
            wave,
            executed: outcome.executed.len(),
            skipped: outcome.skipped.len(),
            deferred: outcome.deferred.len(),
            failed: failures.iter().map(|f| f.step).collect(),
        });
        WmsError::from_failures(wave, failures)
    }

    /// Publishes `StepRetried` events for attempts 2..=`attempts` and
    /// records the consumed retries in stats and telemetry.
    fn publish_retries(&mut self, wave: WaveId, step: StepId, attempts: u32) {
        for attempt in 2..=attempts {
            self.events.publish(&SchedulerEvent::StepRetried {
                wave,
                step,
                attempt,
            });
        }
        if attempts > 1 {
            let retries = u64::from(attempts - 1);
            self.stats.record_retries(step, retries);
            self.note_retried(retries);
        }
    }

    fn note_executed(&self, elapsed: std::time::Duration) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .histogram(names::STEP_LATENCY)
                .record(elapsed);
            self.telemetry.counter(names::STEPS_EXECUTED).incr();
        }
    }

    fn note_skipped(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::STEPS_SKIPPED).incr();
        }
    }

    fn note_deferred(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::STEPS_DEFERRED).incr();
        }
    }

    fn note_retried(&self, retries: u64) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::STEP_RETRIES).add(retries);
        }
    }

    fn note_failed(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry.counter(names::STEPS_FAILED).incr();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workflow", &self.workflow)
            .field("next_wave", &self.next_wave)
            .finish()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // A scheduler must not leave runaway watchdog workers behind: a
        // timed-out step attempt may still be executing against a clone of
        // the store, and letting it outlive the scheduler races whatever
        // the owner does next with that store (export, comparison,
        // recovery). Waits as long as the slowest runaway step.
        self.abandoned.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::policy::SynchronousPolicy;
    use crate::step::{FnStep, StepError};
    use smartflux_datastore::{ContainerRef, Value};

    fn counter_step(table: &'static str, row: &'static str) -> impl crate::step::Step + 'static {
        FnStep::new(move |ctx: &StepContext| {
            let prev = ctx.get_f64(table, "f", row, "count", 0.0)?;
            ctx.put(table, "f", row, "count", Value::from(prev + 1.0))?;
            Ok(())
        })
    }

    fn pipeline(policy: Box<dyn TriggerPolicy>) -> (Scheduler, StepId, StepId) {
        let store = DataStore::new();
        store
            .ensure_container(&ContainerRef::family("t", "f"))
            .unwrap();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let c = b.add_step("c");
        b.add_edge(a, c).unwrap();
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(a, counter_step("t", "a")).source();
        w.bind(c, counter_step("t", "c")).error_bound(0.1);
        (Scheduler::new(w, store, policy), a, c)
    }

    #[test]
    fn synchronous_runs_everything() {
        let (mut s, a, c) = pipeline(Box::new(SynchronousPolicy));
        s.run_waves(5).unwrap();
        assert_eq!(s.stats().executions(a), 5);
        assert_eq!(s.stats().executions(c), 5);
        assert_eq!(s.stats().waves(), 5);
        assert_eq!(
            s.store().get("t", "f", "c", "count").unwrap(),
            Some(Value::from(5.0))
        );
    }

    /// A policy that skips a specific step always.
    struct SkipStep(StepId);
    impl TriggerPolicy for SkipStep {
        fn should_trigger(&mut self, _w: u64, step: StepId, _wf: &Workflow) -> bool {
            step != self.0
        }
    }

    #[test]
    fn skipped_steps_keep_last_output() {
        let (mut s, a, c) = pipeline(Box::new(SynchronousPolicy));
        s.run_waves(2).unwrap();
        s.swap_policy(Box::new(SkipStep(c)));
        s.run_waves(3).unwrap();
        assert_eq!(s.stats().executions(a), 5);
        assert_eq!(s.stats().executions(c), 2);
        assert_eq!(s.stats().skips(c), 3);
        // The stale output remains available — the SmartFlux contract.
        assert_eq!(
            s.store().get("t", "f", "c", "count").unwrap(),
            Some(Value::from(2.0))
        );
    }

    #[test]
    fn downstream_deferred_until_predecessor_first_runs() {
        // A workflow whose source is policy-managed (not always-run), so the
        // downstream step starts out with a never-executed predecessor.
        let store = DataStore::new();
        store
            .ensure_container(&ContainerRef::family("t", "f"))
            .unwrap();
        let mut b = GraphBuilder::new("w2");
        let x = b.add_step("x");
        let y = b.add_step("y");
        b.add_edge(x, y).unwrap();
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(x, counter_step("t", "x"));
        w.bind(y, counter_step("t", "y"));
        let mut s2 = Scheduler::new(w, store, Box::new(SkipStep(x)));
        let o = s2.run_wave().unwrap();
        assert!(o.skipped.contains(&x));
        assert!(o.deferred.contains(&y));
        assert_eq!(s2.stats().deferrals(y), 1);
        // Once x runs, y becomes eligible.
        s2.swap_policy(Box::new(SynchronousPolicy));
        let o2 = s2.run_wave().unwrap();
        assert!(o2.did_execute(x));
        assert!(o2.did_execute(y));
    }

    #[test]
    fn unbound_step_errors() {
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        b.add_step("lonely");
        let w = Workflow::new(b.build().unwrap());
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        assert!(matches!(s.run_wave(), Err(WmsError::UnboundStep(_))));
    }

    #[test]
    fn failing_step_aborts_wave() {
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(|_: &StepContext| Err(StepError::msg("boom"))),
        )
        .source();
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let sub = s.subscribe();
        let err = s.run_wave().unwrap_err();
        assert!(err.to_string().contains("boom"));

        // The abort is clean: terminal event published, stats recorded,
        // and the next wave starts fresh.
        let events = sub.drain();
        assert!(matches!(
            events.last(),
            Some(SchedulerEvent::WaveAborted { wave: 1, .. })
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedulerEvent::StepFailed { attempts: 1, .. })));
        assert_eq!(s.stats().waves(), 0);
        assert_eq!(s.stats().waves_aborted(), 1);
        assert_eq!(s.stats().failures(a), 1);
        assert_eq!(s.next_wave(), 2);
    }

    #[test]
    fn retry_recovers_transient_failure() {
        use crate::faults::{FaultSchedule, FaultyStep};
        use crate::retry::RetryPolicy;

        let store = DataStore::new();
        store
            .ensure_container(&ContainerRef::family("t", "f"))
            .unwrap();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FaultyStep::new(
                counter_step("t", "a"),
                FaultSchedule::FailNThenSucceed { failures: 1 },
            ),
        )
        .source()
        .retry(RetryPolicy::attempts(2));
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let sub = s.subscribe();
        let o = s.run_wave().unwrap();
        assert!(o.did_execute(a));
        assert_eq!(s.stats().retries(a), 1);
        assert_eq!(s.stats().failures(a), 0);
        assert!(sub
            .drain()
            .iter()
            .any(|e| matches!(e, SchedulerEvent::StepRetried { attempt: 2, .. })));
    }

    #[test]
    fn panicking_step_fails_cleanly_in_sequential_wave() {
        let store = DataStore::new();
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(|_: &StepContext| -> Result<(), StepError> { panic!("kaboom") }),
        )
        .source();
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let sub = s.subscribe();
        let err = s.run_wave().unwrap_err();
        assert!(err.to_string().contains("panicked"));
        assert!(matches!(
            sub.drain().last(),
            Some(SchedulerEvent::WaveAborted { .. })
        ));
    }

    #[test]
    fn events_trace_the_wave() {
        let (mut s, _a, c) = pipeline(Box::new(SynchronousPolicy));
        let sub = s.subscribe();
        s.run_wave().unwrap();
        let events = sub.drain();
        assert!(matches!(
            events.first(),
            Some(SchedulerEvent::WaveStarted { wave: 1 })
        ));
        assert!(matches!(
            events.last(),
            Some(SchedulerEvent::WaveCompleted { executed: 2, .. })
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedulerEvent::StepCompleted { step, .. } if *step == c)));
    }

    #[test]
    fn parallel_wave_matches_sequential_results() {
        // Two independent branches plus a join, run both ways over the same
        // feed: final container state and statistics must agree.
        fn build(store: &DataStore) -> Workflow {
            store
                .ensure_container(&ContainerRef::family("t", "f"))
                .unwrap();
            let mut b = GraphBuilder::new("par");
            let src = b.add_step("src");
            let left = b.add_step("left");
            let right = b.add_step("right");
            let join = b.add_step("join");
            b.add_edge(src, left).unwrap();
            b.add_edge(src, right).unwrap();
            b.add_edge(left, join).unwrap();
            b.add_edge(right, join).unwrap();
            let mut w = Workflow::new(b.build().unwrap());
            w.bind(
                src,
                FnStep::new(|ctx: &StepContext| {
                    ctx.put("t", "f", "src", "v", Value::from(ctx.wave() as f64))?;
                    Ok(())
                }),
            )
            .source();
            w.bind(
                left,
                FnStep::new(|ctx: &StepContext| {
                    let v = ctx.get_f64("t", "f", "src", "v", 0.0)?;
                    ctx.put("t", "f", "left", "v", Value::from(v * 2.0))?;
                    Ok(())
                }),
            );
            w.bind(
                right,
                FnStep::new(|ctx: &StepContext| {
                    let v = ctx.get_f64("t", "f", "src", "v", 0.0)?;
                    ctx.put("t", "f", "right", "v", Value::from(v + 10.0))?;
                    Ok(())
                }),
            );
            w.bind(
                join,
                FnStep::new(|ctx: &StepContext| {
                    let l = ctx.get_f64("t", "f", "left", "v", 0.0)?;
                    let r = ctx.get_f64("t", "f", "right", "v", 0.0)?;
                    ctx.put("t", "f", "join", "v", Value::from(l + r))?;
                    Ok(())
                }),
            );
            w
        }

        let store_seq = DataStore::new();
        let mut seq = Scheduler::new(
            build(&store_seq),
            store_seq.clone(),
            Box::new(SynchronousPolicy),
        );
        let store_par = DataStore::new();
        let mut par = Scheduler::new(
            build(&store_par),
            store_par.clone(),
            Box::new(SynchronousPolicy),
        );

        for _ in 0..4 {
            let a = seq.run_wave().unwrap();
            let b = par.run_wave_parallel().unwrap();
            assert_eq!(a.wave, b.wave);
            assert_eq!(a.executed.len(), b.executed.len());
        }
        assert_eq!(
            store_seq.snapshot(&ContainerRef::family("t", "f")).unwrap(),
            store_par.snapshot(&ContainerRef::family("t", "f")).unwrap()
        );
        assert_eq!(
            seq.stats().total_executions(),
            par.stats().total_executions()
        );
    }

    #[test]
    fn parallel_wave_respects_policy_skips() {
        let (mut s, _a, c) = pipeline(Box::new(SynchronousPolicy));
        s.run_wave_parallel().unwrap();
        s.swap_policy(Box::new(SkipStep(c)));
        let o = s.run_wave_parallel().unwrap();
        assert!(o.skipped.contains(&c));
        assert!(!o.did_execute(c));
    }

    #[test]
    fn parallel_wave_propagates_failures() {
        let store = DataStore::new();
        let mut b = GraphBuilder::new("boom");
        let a = b.add_step("a");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(|_: &StepContext| Err(StepError::msg("parallel boom"))),
        )
        .source();
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let err = s.run_wave_parallel().unwrap_err();
        assert!(err.to_string().contains("parallel boom"));
    }

    #[test]
    fn parallel_wave_keeps_every_sibling_failure() {
        // Two independent sources fail in the same level: both must be
        // recorded and surfaced, not just the first.
        let store = DataStore::new();
        let mut b = GraphBuilder::new("boom2");
        let a = b.add_step("a");
        let c = b.add_step("c");
        let mut w = Workflow::new(b.build().unwrap());
        w.bind(
            a,
            FnStep::new(|_: &StepContext| Err(StepError::msg("a broke"))),
        )
        .source();
        w.bind(
            c,
            FnStep::new(|_: &StepContext| Err(StepError::msg("c broke"))),
        )
        .source();
        let mut s = Scheduler::new(w, store, Box::new(SynchronousPolicy));
        let sub = s.subscribe();
        let err = s.run_wave_parallel().unwrap_err();
        assert_eq!(err.failure_count(), 2);
        let text = err.to_string();
        assert!(text.contains("a broke") && text.contains("c broke"));
        assert_eq!(s.stats().failures(a), 1);
        assert_eq!(s.stats().failures(c), 1);
        let events = sub.drain();
        match events.last() {
            Some(SchedulerEvent::WaveAborted { failed, .. }) => {
                assert_eq!(failed.as_slice(), &[a, c]);
            }
            other => panic!("expected WaveAborted, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_records_waves_steps_and_skips() {
        use smartflux_telemetry::{names, Telemetry};
        let (mut s, _a, c) = pipeline(Box::new(SynchronousPolicy));
        let telemetry = Telemetry::enabled();
        s.set_telemetry(telemetry.clone());
        s.run_waves(2).unwrap();
        s.swap_policy(Box::new(SkipStep(c)));
        s.run_wave().unwrap();
        s.run_wave_parallel().unwrap();

        let snap = telemetry.snapshot();
        assert_eq!(snap.histogram(names::WAVE_LATENCY).unwrap().count, 4);
        // Waves 1-2 run both steps; waves 3-4 skip `c`.
        assert_eq!(snap.counter(names::STEPS_EXECUTED), 6);
        assert_eq!(snap.counter(names::STEPS_SKIPPED), 2);
        assert_eq!(snap.histogram(names::STEP_LATENCY).unwrap().count, 6);
        assert!(snap.histogram(names::STEP_LATENCY).unwrap().p95_ns > 0);
        // The step/attempt spans record alongside the legacy histogram:
        // 6 executions, each a single attempt.
        assert_eq!(snap.histogram(names::STEP_TOTAL_LATENCY).unwrap().count, 6);
        assert_eq!(
            snap.histogram(names::STEP_ATTEMPT_LATENCY).unwrap().count,
            6
        );
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        use smartflux_telemetry::names;
        let (mut s, ..) = pipeline(Box::new(SynchronousPolicy));
        s.run_waves(3).unwrap();
        let snap = s.telemetry().snapshot();
        assert!(snap.histogram(names::WAVE_LATENCY).is_none());
        assert_eq!(snap.counter(names::STEPS_EXECUTED), 0);
    }

    #[test]
    fn resume_repositions_wave_and_clears_deferrals() {
        // A freshly-built pipeline resumed at wave 42 runs every step
        // immediately (no deferral for the downstream step) and numbers the
        // wave as the checkpointed run would have.
        let (mut s, a, c) = pipeline(Box::new(SynchronousPolicy));
        s.resume(42);
        assert_eq!(s.next_wave(), 42);
        let o = s.run_wave().unwrap();
        assert_eq!(o.wave, 42);
        assert!(o.did_execute(a) && o.did_execute(c));
        assert!(o.deferred.is_empty());
        // Resume clamps to wave 1 — wave numbering starts at 1.
        let (mut s2, ..) = pipeline(Box::new(SynchronousPolicy));
        s2.resume(0);
        assert_eq!(s2.next_wave(), 1);
    }

    #[test]
    fn wave_numbers_increase() {
        let (mut s, ..) = pipeline(Box::new(SynchronousPolicy));
        assert_eq!(s.next_wave(), 1);
        let o1 = s.run_wave().unwrap();
        let o2 = s.run_wave().unwrap();
        assert_eq!(o1.wave, 1);
        assert_eq!(o2.wave, 2);
        assert_eq!(s.next_wave(), 3);
    }
}
